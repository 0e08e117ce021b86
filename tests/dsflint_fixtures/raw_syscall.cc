// dsflint fixture: a raw file-I/O syscall outside the storage backend.
// Never compiled — lint fodder only.

namespace fixture {

struct Stream {
  void open(const char* path);  // member named open: NOT a syscall
};

void Load(Stream& s) {
  s.open("/tmp/x");  // member call, exempt
}

int Persist(const void* buf, unsigned long n, long off, int fd) {
  return pwrite(fd, buf, n, off);  // SEEDED VIOLATION: raw-syscall-io (line 15)
}

int Zero(int fd, long n) {
  return fallocate(fd, 0, 0, n);  // SEEDED VIOLATION: raw-syscall-io (line 19)
}

}  // namespace fixture
