// The one translation unit in the tree allowed to call raw file
// primitives (open/write/fsync/rename/...); everything else goes
// through an IoEnv so faults can be injected.  Enforced by the mslint
// `raw-io` rule, which exempts exactly this file.

#include "util/io_env.hpp"

#include <cerrno>
#include <cstdlib>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <utility>

#include "util/failpoint.hpp"

namespace mergescale::util {

namespace {

std::string errno_text(int err) {
  return std::generic_category().message(err);
}

IoResult posix_error(const std::string& what, const std::string& path,
                     int err) {
  IoResult result =
      IoResult::failure(what + " " + path + ": " + errno_text(err));
  result.not_found = err == ENOENT;
  return result;
}

/// WritableFile over a raw file descriptor.  append() retries EINTR and
/// short writes, so a partial ::write never silently drops bytes.
class RealWritableFile final : public WritableFile {
 public:
  RealWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~RealWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] IoResult append(std::string_view data) override {
    if (fd_ < 0) return IoResult::failure("append " + path_ + ": closed");
    const char* cursor = data.data();
    std::size_t remaining = data.size();
    while (remaining > 0) {
      const ssize_t wrote = ::write(fd_, cursor, remaining);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return posix_error("write", path_, errno);
      }
      cursor += wrote;
      remaining -= static_cast<std::size_t>(wrote);
    }
    return IoResult::success();
  }

  [[nodiscard]] IoResult flush() override {
    // append() writes through to the OS; there is no user-space buffer
    // to drain.
    return IoResult::success();
  }

  [[nodiscard]] IoResult sync() override {
    if (fd_ < 0) return IoResult::failure("fsync " + path_ + ": closed");
    if (::fsync(fd_) != 0) return posix_error("fsync", path_, errno);
    return IoResult::success();
  }

  [[nodiscard]] IoResult close() override {
    if (fd_ < 0) return IoResult::success();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return posix_error("close", path_, errno);
    return IoResult::success();
  }

 private:
  int fd_;
  std::string path_;
};

/// Zero-copy random access over a private read-only mapping.  The fd is
/// closed right after mmap (the mapping keeps the pages alive), and the
/// mapping is immutable, so concurrent read() calls need no locking.
class RealRandomAccessFile final : public RandomAccessFile {
 public:
  RealRandomAccessFile(void* map, std::uint64_t size)
      : map_(map), size_(size) {}

  ~RealRandomAccessFile() override {
    if (map_ != nullptr) ::munmap(map_, static_cast<std::size_t>(size_));
  }

  RealRandomAccessFile(const RealRandomAccessFile&) = delete;
  RealRandomAccessFile& operator=(const RealRandomAccessFile&) = delete;

  std::uint64_t size() const noexcept override { return size_; }

  [[nodiscard]] IoResult read(std::uint64_t offset, std::size_t count,
                              std::string_view* out,
                              std::string* /*scratch*/) const override {
    if (offset >= size_) {
      *out = std::string_view();
      return IoResult::success();
    }
    const std::uint64_t available = size_ - offset;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(count, available));
    *out = std::string_view(static_cast<const char*>(map_) + offset, take);
    return IoResult::success();
  }

 private:
  void* map_;
  std::uint64_t size_;
};

class RealIoEnv final : public IoEnv {
 public:
  [[nodiscard]] IoResult new_writable(
      const std::string& path, bool truncate,
      std::unique_ptr<WritableFile>* out) override {
    const int flags =
        O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return posix_error("open", path, errno);
    *out = std::make_unique<RealWritableFile>(fd, path);
    return IoResult::success();
  }

  [[nodiscard]] IoResult read_file(const std::string& path,
                                   std::string* out) override {
    out->clear();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return posix_error("open", path, errno);
    char buffer[1 << 16];
    for (;;) {
      const ssize_t got = ::read(fd, buffer, sizeof buffer);
      if (got < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        return posix_error("read", path, err);
      }
      if (got == 0) break;
      out->append(buffer, static_cast<std::size_t>(got));
    }
    ::close(fd);
    return IoResult::success();
  }

  [[nodiscard]] IoResult read_file_range(const std::string& path,
                                         std::uint64_t offset,
                                         std::size_t count,
                                         std::string* out) override {
    out->clear();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return posix_error("open", path, errno);
    out->resize(count);
    std::size_t filled = 0;
    while (filled < count) {
      const ssize_t got =
          ::pread(fd, out->data() + filled, count - filled,
                  static_cast<off_t>(offset + filled));
      if (got < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        out->clear();
        return posix_error("pread", path, err);
      }
      if (got == 0) break;  // short read at EOF: not an error
      filled += static_cast<std::size_t>(got);
    }
    ::close(fd);
    out->resize(filled);
    return IoResult::success();
  }

  [[nodiscard]] IoResult new_random_access(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* out) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return posix_error("open", path, errno);
    struct stat info{};
    if (::fstat(fd, &info) != 0) {
      const int err = errno;
      ::close(fd);
      return posix_error("stat", path, err);
    }
    const auto size = static_cast<std::uint64_t>(info.st_size);
    void* map = nullptr;
    if (size > 0) {
      map = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ,
                   MAP_PRIVATE, fd, 0);
      if (map == MAP_FAILED) {
        const int err = errno;
        ::close(fd);
        return posix_error("mmap", path, err);
      }
    }
    ::close(fd);
    *out = std::make_unique<RealRandomAccessFile>(map, size);
    return IoResult::success();
  }

  bool exists(const std::string& path) override {
    struct stat info{};
    return ::stat(path.c_str(), &info) == 0;
  }

  [[nodiscard]] IoResult file_size(const std::string& path,
                                   std::uint64_t* out) override {
    struct stat info{};
    if (::stat(path.c_str(), &info) != 0) {
      return posix_error("stat", path, errno);
    }
    *out = static_cast<std::uint64_t>(info.st_size);
    return IoResult::success();
  }

  [[nodiscard]] IoResult rename_file(const std::string& from,
                                     const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return posix_error("rename", from + " -> " + to, errno);
    }
    return IoResult::success();
  }

  [[nodiscard]] IoResult remove_file(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return posix_error("unlink", path, errno);
    }
    return IoResult::success();
  }

  [[nodiscard]] IoResult truncate_file(const std::string& path,
                                       std::uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return posix_error("truncate", path, errno);
    }
    return IoResult::success();
  }

  [[nodiscard]] IoResult create_directories(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) return IoResult::failure("mkdir " + path + ": " + ec.message());
    return IoResult::success();
  }

  [[nodiscard]] IoResult list_dir(const std::string& path,
                                  std::vector<std::string>* names) override {
    names->clear();
    std::error_code ec;
    std::filesystem::directory_iterator it(path, ec);
    if (ec) {
      if (ec == std::errc::no_such_file_or_directory) {
        return IoResult::success();
      }
      return IoResult::failure("list " + path + ": " + ec.message());
    }
    for (const auto& entry : it) {
      if (entry.is_regular_file(ec)) {
        names->push_back(entry.path().filename().string());
      }
    }
    return IoResult::success();
  }
};

std::atomic<IoEnv*> g_override{nullptr};

/// Resolves the default env once: plain RealIoEnv, or — when
/// MS_FAILPOINTS is set — a FaultyIoEnv over it with the registry armed
/// from the variable, so CLI smokes inject faults without code changes.
IoEnv& default_io_env() {
  static IoEnv* env = [] {
    const char* config = std::getenv("MS_FAILPOINTS");
    if (config == nullptr || *config == '\0') return &real_io_env();
    FailPoints::instance().configure(config);
    static FaultyIoEnv faulty(&real_io_env());
    std::fprintf(stderr, "io_env: fault injection active:");
    for (const std::string& line : FailPoints::instance().describe()) {
      std::fprintf(stderr, " %s", line.c_str());
    }
    std::fprintf(stderr, "\n");
    return static_cast<IoEnv*>(&faulty);
  }();
  return *env;
}

/// Fallback random-access handle for envs without a native one: every
/// read() is a read_file_range() through the owning env, so whatever
/// decoration that env applies (fault injection, power loss) covers
/// positioned reads too.  The env must outlive the handle.
class EnvRandomAccessFile final : public RandomAccessFile {
 public:
  EnvRandomAccessFile(IoEnv* env, std::string path, std::uint64_t size)
      : env_(env), path_(std::move(path)), size_(size) {}

  std::uint64_t size() const noexcept override { return size_; }

  [[nodiscard]] IoResult read(std::uint64_t offset, std::size_t count,
                              std::string_view* out,
                              std::string* scratch) const override {
    const IoResult result =
        env_->read_file_range(path_, offset, count, scratch);
    if (!result.ok()) return result;
    *out = *scratch;
    return IoResult::success();
  }

 private:
  IoEnv* env_;
  std::string path_;
  std::uint64_t size_;
};

}  // namespace

WritableFileBuf::WritableFileBuf(std::unique_ptr<WritableFile> file)
    : file_(std::move(file)), buffer_(kBufferBytes, '\0') {
  setp(buffer_.data(), buffer_.data() + buffer_.size());
}

bool WritableFileBuf::drain() {
  if (!status_.ok()) return false;
  const std::size_t pending = static_cast<std::size_t>(pptr() - pbase());
  if (pending > 0) status_ = file_->append({pbase(), pending});
  setp(buffer_.data(), buffer_.data() + buffer_.size());
  return status_.ok();
}

WritableFileBuf::int_type WritableFileBuf::overflow(int_type ch) {
  if (!drain()) return traits_type::eof();
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  *pptr() = traits_type::to_char_type(ch);
  pbump(1);
  return ch;
}

IoResult WritableFileBuf::finish() {
  drain();
  IoResult flushed = file_->flush();
  if (status_.ok()) status_ = std::move(flushed);
  IoResult closed = file_->close();
  if (status_.ok()) status_ = std::move(closed);
  return status_;
}

IoResult IoEnv::new_random_access(const std::string& path,
                                  std::unique_ptr<RandomAccessFile>* out) {
  std::uint64_t size = 0;
  const IoResult result = file_size(path, &size);
  if (!result.ok()) return result;
  *out = std::make_unique<EnvRandomAccessFile>(this, path, size);
  return IoResult::success();
}

IoEnv& real_io_env() {
  static RealIoEnv env;
  return env;
}

IoEnv& io_env() {
  IoEnv* override_env = g_override.load(std::memory_order_acquire);
  return override_env != nullptr ? *override_env : default_io_env();
}

IoEnv* set_io_env(IoEnv* env) {
  return g_override.exchange(env, std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------------
// FaultyIoEnv

/// Decorated writable file: consults io.write / io.short-write /
/// io.flush / io.sync around the base file and feeds the trace.
class FaultyWritableFile final : public WritableFile {
 public:
  FaultyWritableFile(std::unique_ptr<WritableFile> base, std::string path,
                     FaultyIoEnv* env)
      : base_(std::move(base)), path_(std::move(path)), env_(env) {}

  [[nodiscard]] IoResult append(std::string_view data) override {
    if (env_->powered_off()) {
      return IoResult::failure("write " + path_ + ": injected power loss");
    }
    IoResult injected;
    if (env_->inject("io.short-write", path_, &injected)) {
      // Model a torn write: half the buffer lands before the error.
      const std::string_view prefix = data.substr(0, data.size() / 2);
      if (!prefix.empty() && base_->append(prefix).ok()) {
        env_->on_append(path_, prefix.size());
      }
      injected.message += " (short write, " +
                          std::to_string(prefix.size()) + "/" +
                          std::to_string(data.size()) + " bytes)";
      return injected;
    }
    if (env_->inject("io.write", path_, &injected)) return injected;
    IoResult result = base_->append(data);
    if (result.ok()) env_->on_append(path_, data.size());
    return result;
  }

  [[nodiscard]] IoResult flush() override {
    if (env_->powered_off()) {
      return IoResult::failure("flush " + path_ + ": injected power loss");
    }
    IoResult injected;
    if (env_->inject("io.flush", path_, &injected)) return injected;
    return base_->flush();
  }

  [[nodiscard]] IoResult sync() override {
    if (env_->powered_off()) {
      return IoResult::failure("fsync " + path_ + ": injected power loss");
    }
    IoResult injected;
    if (env_->inject("io.sync", path_, &injected)) return injected;
    IoResult result = base_->sync();
    if (result.ok()) env_->on_sync(path_);
    return result;
  }

  [[nodiscard]] IoResult close() override {
    // Always release the descriptor, even powered off — the simulated
    // machine is dead but this process still owns the fd.
    IoResult result = base_->close();
    if (env_->powered_off()) {
      return IoResult::failure("close " + path_ + ": injected power loss");
    }
    return result;
  }

 private:
  std::unique_ptr<WritableFile> base_;
  std::string path_;
  FaultyIoEnv* env_;
};

FaultyIoEnv::FaultyIoEnv(IoEnv* base)
    : base_(base != nullptr ? base : &real_io_env()) {}

bool FaultyIoEnv::powered_off() const {
  return powered_off_.load(std::memory_order_acquire);
}

bool FaultyIoEnv::inject(std::string_view point, const std::string& path,
                         IoResult* result) const {
  if (!FailPoints::instance().should_fail(point, path)) return false;
  *result = IoResult::failure("injected fault at " + std::string(point) +
                              " (" + path + ")");
  return true;
}

void FaultyIoEnv::on_append(const std::string& path, std::uint64_t bytes) {
  MutexLock lock(mu_);
  traces_[path].written += bytes;
}

void FaultyIoEnv::on_sync(const std::string& path) {
  MutexLock lock(mu_);
  FileTrace& trace = traces_[path];
  trace.durable = trace.written;
}

void FaultyIoEnv::on_open(const std::string& path, bool truncate) {
  std::uint64_t size = 0;
  if (truncate || !base_->file_size(path, &size).ok()) size = 0;
  MutexLock lock(mu_);
  // Bytes that predate this env are assumed already on the platter.
  auto [it, inserted] = traces_.try_emplace(path, FileTrace{size, size});
  if (!inserted && truncate) it->second = FileTrace{0, 0};
}

IoResult FaultyIoEnv::new_writable(const std::string& path, bool truncate,
                                   std::unique_ptr<WritableFile>* out) {
  if (powered_off()) {
    return IoResult::failure("open " + path + ": injected power loss");
  }
  IoResult injected;
  if (inject("io.open", path, &injected)) return injected;
  std::unique_ptr<WritableFile> base_file;
  IoResult result = base_->new_writable(path, truncate, &base_file);
  if (!result.ok()) return result;
  on_open(path, truncate);
  *out = std::make_unique<FaultyWritableFile>(std::move(base_file), path, this);
  return IoResult::success();
}

IoResult FaultyIoEnv::read_file(const std::string& path, std::string* out) {
  if (powered_off()) {
    return IoResult::failure("read " + path + ": injected power loss");
  }
  IoResult injected;
  if (inject("io.read", path, &injected)) return injected;
  return base_->read_file(path, out);
}

IoResult FaultyIoEnv::read_file_range(const std::string& path,
                                      std::uint64_t offset, std::size_t count,
                                      std::string* out) {
  if (powered_off()) {
    return IoResult::failure("read " + path + ": injected power loss");
  }
  IoResult injected;
  if (inject("io.read", path, &injected)) return injected;
  return base_->read_file_range(path, offset, count, out);
}

bool FaultyIoEnv::exists(const std::string& path) {
  return !powered_off() && base_->exists(path);
}

IoResult FaultyIoEnv::file_size(const std::string& path, std::uint64_t* out) {
  if (powered_off()) {
    return IoResult::failure("stat " + path + ": injected power loss");
  }
  return base_->file_size(path, out);
}

IoResult FaultyIoEnv::rename_file(const std::string& from,
                                  const std::string& to) {
  if (powered_off()) {
    return IoResult::failure("rename " + from + ": injected power loss");
  }
  IoResult injected;
  if (inject("io.rename", from, &injected)) return injected;
  IoResult result = base_->rename_file(from, to);
  if (result.ok()) {
    MutexLock lock(mu_);
    if (const auto it = traces_.find(from); it != traces_.end()) {
      traces_[to] = it->second;
      traces_.erase(it);
    }
  }
  return result;
}

IoResult FaultyIoEnv::remove_file(const std::string& path) {
  if (powered_off()) {
    return IoResult::failure("unlink " + path + ": injected power loss");
  }
  IoResult injected;
  if (inject("io.remove", path, &injected)) return injected;
  IoResult result = base_->remove_file(path);
  if (result.ok()) {
    MutexLock lock(mu_);
    traces_.erase(path);
  }
  return result;
}

IoResult FaultyIoEnv::truncate_file(const std::string& path,
                                    std::uint64_t size) {
  if (powered_off()) {
    return IoResult::failure("truncate " + path + ": injected power loss");
  }
  IoResult injected;
  if (inject("io.truncate", path, &injected)) return injected;
  IoResult result = base_->truncate_file(path, size);
  if (result.ok()) {
    MutexLock lock(mu_);
    if (const auto it = traces_.find(path); it != traces_.end()) {
      it->second.written = std::min(it->second.written, size);
      it->second.durable = std::min(it->second.durable, size);
    }
  }
  return result;
}

IoResult FaultyIoEnv::create_directories(const std::string& path) {
  if (powered_off()) {
    return IoResult::failure("mkdir " + path + ": injected power loss");
  }
  IoResult injected;
  if (inject("io.mkdir", path, &injected)) return injected;
  return base_->create_directories(path);
}

IoResult FaultyIoEnv::list_dir(const std::string& path,
                               std::vector<std::string>* names) {
  if (powered_off()) {
    return IoResult::failure("list " + path + ": injected power loss");
  }
  IoResult injected;
  if (inject("io.list", path, &injected)) return injected;
  return base_->list_dir(path, names);
}

std::optional<FaultyIoEnv::FileTrace> FaultyIoEnv::trace(
    const std::string& path) const {
  MutexLock lock(mu_);
  const auto it = traces_.find(path);
  if (it == traces_.end()) return std::nullopt;
  return it->second;
}

void FaultyIoEnv::lose_power(
    const std::function<std::uint64_t(std::uint64_t)>& keep_torn) {
  MutexLock lock(mu_);
  for (auto& [path, trace] : traces_) {
    if (trace.written <= trace.durable) continue;
    const std::uint64_t unsynced = trace.written - trace.durable;
    std::uint64_t keep = keep_torn ? keep_torn(unsynced) : 0;
    keep = std::min(keep, unsynced);
    const std::uint64_t target = trace.durable + keep;
    // Truncate through the base env: the platter, not the dead machine.
    if (base_->truncate_file(path, target).ok()) {
      trace.written = target;
    }
  }
  powered_off_.store(true, std::memory_order_release);
}

void FaultyIoEnv::reset_power() {
  MutexLock lock(mu_);
  for (auto it = traces_.begin(); it != traces_.end();) {
    std::uint64_t size = 0;
    if (base_->file_size(it->first, &size).ok()) {
      it->second = FileTrace{size, size};
      ++it;
    } else {
      it = traces_.erase(it);
    }
  }
  powered_off_.store(false, std::memory_order_release);
}

}  // namespace mergescale::util
