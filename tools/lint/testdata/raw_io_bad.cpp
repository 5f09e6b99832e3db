// Fixture: direct file primitives that bypass util::IoEnv.  Only
// src/util/io_env.cpp may talk to the filesystem directly; everywhere
// else these calls erode the fault-injection seam.
#include <cstdio>
#include <fcntl.h>
#include <unistd.h>

namespace fixture {

void stdio_calls(const char* path) {
  FILE* f = fopen(path, "wb");  // line 11: raw-io
  char buf[16] = {};
  fwrite(buf, 1, sizeof(buf), f);  // line 13: raw-io
  fread(buf, 1, sizeof(buf), f);   // line 14: raw-io
  std::fclose(f);
}

void posix_calls(const char* path) {
  const int fd = ::open(path, O_WRONLY | O_CREAT, 0644);  // line 19: raw-io
  ::write(fd, "x", 1);                                    // line 20: raw-io
  ::fsync(fd);                                            // line 21: raw-io
  ::close(fd);
  ::rename(path, "elsewhere");  // line 23: raw-io
  ::unlink(path);               // line 24: raw-io
}

struct File {
  static File open(const char* path);  // member static: not the global ns
};

void qualified_ok(const char* path) {
  File::open(path);  // receiver-qualified: allowed
  // Type::name() calls are never the global namespace.
}

void suppressed(const char* path) {
  ::unlink(path);  // mslint: allow(raw-io)
}

void mapping_calls(void* addr) {
  ::mmap(nullptr, 16, 3, 2, -1, 0);  // line 41: raw-io
  ::munmap(addr, 16);                // line 42: raw-io
}

void stream_calls(const char* path) {
  std::ofstream out(path);                     // line 46: raw-io
  std::filesystem::rename(path, "elsewhere");  // line 47: raw-io
}

}  // namespace fixture
