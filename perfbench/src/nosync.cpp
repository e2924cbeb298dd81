// libesvabench_nosync.so: preloaded into the serve-mixed processes so that
// fsync and fdatasync return at once, as they do on tmpfs. Every write the
// daemon makes still goes through the kernel's page cache; only the device
// flush is skipped, whose latency follows the host disk rather than esva
// (perfbench/README.md, "serve-mixed").

#include <fcntl.h>

extern "C" int fsync(int fd) { return ::fcntl(fd, F_GETFD) < 0 ? -1 : 0; }

extern "C" int fdatasync(int fd) { return ::fcntl(fd, F_GETFD) < 0 ? -1 : 0; }
