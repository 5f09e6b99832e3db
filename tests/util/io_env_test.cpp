#include "util/io_env.hpp"

#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.hpp"

namespace mergescale::util {
namespace {

class IoEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_io_env_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(real_io_env().create_directories(dir_).ok());
  }
  void TearDown() override {
    FailPoints::instance().disarm_all();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  /// Writes `data` to `name` through `env` and closes the file.
  static void write_file(IoEnv& env, const std::string& path,
                         std::string_view data, bool sync = false) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env.new_writable(path, /*truncate=*/true, &file).ok());
    ASSERT_TRUE(file->append(data).ok());
    ASSERT_TRUE(file->flush().ok());
    if (sync) {
      ASSERT_TRUE(file->sync().ok());
    }
    ASSERT_TRUE(file->close().ok());
  }

  std::string dir_;
};

TEST_F(IoEnvTest, RealRoundtrip) {
  IoEnv& env = real_io_env();
  write_file(env, path("a.txt"), "hello\nworld\n");

  std::string bytes;
  ASSERT_TRUE(env.read_file(path("a.txt"), &bytes).ok());
  EXPECT_EQ(bytes, "hello\nworld\n");

  std::uint64_t size = 0;
  ASSERT_TRUE(env.file_size(path("a.txt"), &size).ok());
  EXPECT_EQ(size, 12u);
  EXPECT_TRUE(env.exists(path("a.txt")));
  EXPECT_FALSE(env.exists(path("missing.txt")));
}

TEST_F(IoEnvTest, RealAppendModeExtends) {
  IoEnv& env = real_io_env();
  write_file(env, path("a.txt"), "one\n");
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.new_writable(path("a.txt"), /*truncate=*/false, &file).ok());
  ASSERT_TRUE(file->append("two\n").ok());
  ASSERT_TRUE(file->close().ok());
  std::string bytes;
  ASSERT_TRUE(env.read_file(path("a.txt"), &bytes).ok());
  EXPECT_EQ(bytes, "one\ntwo\n");
}

TEST_F(IoEnvTest, RealReadRangeShortAtEof) {
  IoEnv& env = real_io_env();
  write_file(env, path("a.txt"), "abcdef");
  std::string bytes;
  ASSERT_TRUE(env.read_file_range(path("a.txt"), 4, 100, &bytes).ok());
  EXPECT_EQ(bytes, "ef");  // short read at EOF is not an error
  ASSERT_TRUE(env.read_file_range(path("a.txt"), 1, 3, &bytes).ok());
  EXPECT_EQ(bytes, "bcd");
}

TEST_F(IoEnvTest, RealMissingFileIsNotFound) {
  IoEnv& env = real_io_env();
  std::string bytes;
  const IoResult result = env.read_file(path("missing.txt"), &bytes);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.not_found);
  // Removing a missing file succeeds (idempotent cleanup).
  EXPECT_TRUE(env.remove_file(path("missing.txt")).ok());
}

TEST_F(IoEnvTest, RealRenameTruncateListDir) {
  IoEnv& env = real_io_env();
  write_file(env, path("from.txt"), "payload");
  ASSERT_TRUE(env.rename_file(path("from.txt"), path("to.txt")).ok());
  EXPECT_FALSE(env.exists(path("from.txt")));
  EXPECT_TRUE(env.exists(path("to.txt")));

  ASSERT_TRUE(env.truncate_file(path("to.txt"), 3).ok());
  std::string bytes;
  ASSERT_TRUE(env.read_file(path("to.txt"), &bytes).ok());
  EXPECT_EQ(bytes, "pay");

  std::vector<std::string> names;
  ASSERT_TRUE(env.list_dir(dir_, &names).ok());
  EXPECT_EQ(names, std::vector<std::string>{"to.txt"});
  ASSERT_TRUE(env.list_dir(path("no-such-dir"), &names).ok());
  EXPECT_TRUE(names.empty());  // missing dir == empty, not an error
}

TEST_F(IoEnvTest, ScopedOverrideRestoresDefault) {
  FaultyIoEnv faulty;
  EXPECT_EQ(&io_env(), &real_io_env());
  {
    ScopedIoEnv scope(&faulty);
    EXPECT_EQ(&io_env(), static_cast<IoEnv*>(&faulty));
  }
  EXPECT_EQ(&io_env(), &real_io_env());
}

TEST_F(IoEnvTest, FaultyPassThroughWhenUnarmed) {
  FaultyIoEnv faulty;
  write_file(faulty, path("a.txt"), "data", /*sync=*/true);
  std::string bytes;
  ASSERT_TRUE(faulty.read_file(path("a.txt"), &bytes).ok());
  EXPECT_EQ(bytes, "data");
}

TEST_F(IoEnvTest, FaultyInjectsAtNamedPoints) {
  FaultyIoEnv faulty;
  FailPoints::instance().arm("io.open", "always");
  std::unique_ptr<WritableFile> file;
  EXPECT_FALSE(faulty.new_writable(path("a.txt"), true, &file).ok());
  FailPoints::instance().disarm("io.open");

  ASSERT_TRUE(faulty.new_writable(path("a.txt"), true, &file).ok());
  FailPoints::instance().arm("io.write", "always");
  const IoResult write = file->append("doomed");
  EXPECT_FALSE(write.ok());
  EXPECT_NE(write.message.find("io.write"), std::string::npos);
  FailPoints::instance().disarm("io.write");

  FailPoints::instance().arm("io.sync", "always");
  EXPECT_FALSE(file->sync().ok());
  FailPoints::instance().disarm("io.sync");
  ASSERT_TRUE(file->close().ok());

  FailPoints::instance().arm("io.rename", "always");
  EXPECT_FALSE(faulty.rename_file(path("a.txt"), path("b.txt")).ok());
  FailPoints::instance().disarm("io.rename");
}

TEST_F(IoEnvTest, FaultyPathFilterTargetsOneFile) {
  FaultyIoEnv faulty;
  FailPoints::instance().arm("io.write", "always@victim");
  std::unique_ptr<WritableFile> ok_file;
  ASSERT_TRUE(faulty.new_writable(path("fine.txt"), true, &ok_file).ok());
  EXPECT_TRUE(ok_file->append("x").ok());
  ASSERT_TRUE(ok_file->close().ok());

  std::unique_ptr<WritableFile> bad_file;
  ASSERT_TRUE(faulty.new_writable(path("victim.txt"), true, &bad_file).ok());
  EXPECT_FALSE(bad_file->append("x").ok());
  ASSERT_TRUE(bad_file->close().ok());
}

TEST_F(IoEnvTest, ShortWriteLandsAPrefix) {
  FaultyIoEnv faulty;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(faulty.new_writable(path("a.txt"), true, &file).ok());
  FailPoints::instance().arm("io.short-write", "nth:1");
  const IoResult result = file->append("0123456789");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.message.find("short write"), std::string::npos);
  ASSERT_TRUE(file->close().ok());
  // Half the buffer reached the base env before the error.
  std::string bytes;
  ASSERT_TRUE(real_io_env().read_file(path("a.txt"), &bytes).ok());
  EXPECT_EQ(bytes, "01234");
}

TEST_F(IoEnvTest, TraceTracksWrittenVersusDurable) {
  FaultyIoEnv faulty;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(faulty.new_writable(path("a.txt"), true, &file).ok());
  ASSERT_TRUE(file->append("0123").ok());
  auto trace = faulty.trace(path("a.txt"));
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->written, 4u);
  EXPECT_EQ(trace->durable, 0u);  // no sync yet

  ASSERT_TRUE(file->sync().ok());
  trace = faulty.trace(path("a.txt"));
  EXPECT_EQ(trace->durable, 4u);

  ASSERT_TRUE(file->append("4567").ok());
  trace = faulty.trace(path("a.txt"));
  EXPECT_EQ(trace->written, 8u);
  EXPECT_EQ(trace->durable, 4u);  // tail still unsynced
  ASSERT_TRUE(file->close().ok());
}

TEST_F(IoEnvTest, LosePowerDropsUnsyncedSuffix) {
  FaultyIoEnv faulty;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(faulty.new_writable(path("a.txt"), true, &file).ok());
  ASSERT_TRUE(file->append("durable|").ok());
  ASSERT_TRUE(file->sync().ok());
  ASSERT_TRUE(file->append("lost").ok());

  faulty.lose_power();
  // Every operation fails while powered off — the writer cannot repair.
  EXPECT_FALSE(file->append("late").ok());
  EXPECT_FALSE(file->sync().ok());
  std::string bytes;
  EXPECT_FALSE(faulty.read_file(path("a.txt"), &bytes).ok());
  // close() reports the power loss but still releases the descriptor.
  EXPECT_FALSE(file->close().ok());

  // The disk kept only what was synced.
  ASSERT_TRUE(real_io_env().read_file(path("a.txt"), &bytes).ok());
  EXPECT_EQ(bytes, "durable|");

  faulty.reset_power();
  ASSERT_TRUE(faulty.read_file(path("a.txt"), &bytes).ok());
  EXPECT_EQ(bytes, "durable|");
}

TEST_F(IoEnvTest, LosePowerCanKeepATornPrefix) {
  FaultyIoEnv faulty;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(faulty.new_writable(path("a.txt"), true, &file).ok());
  ASSERT_TRUE(file->append("sync|").ok());
  ASSERT_TRUE(file->sync().ok());
  ASSERT_TRUE(file->append("abcdef").ok());
  ASSERT_TRUE(file->close().ok());

  // Keep 2 bytes of the 6 unsynced: a torn final write.
  faulty.lose_power([](std::uint64_t unsynced) {
    EXPECT_EQ(unsynced, 6u);
    return std::uint64_t{2};
  });
  std::string bytes;
  ASSERT_TRUE(real_io_env().read_file(path("a.txt"), &bytes).ok());
  EXPECT_EQ(bytes, "sync|ab");
}

TEST_F(IoEnvTest, AppendOpenPresumesExistingBytesDurable) {
  write_file(real_io_env(), path("a.txt"), "old!", /*sync=*/true);
  FaultyIoEnv faulty;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(faulty.new_writable(path("a.txt"), /*truncate=*/false, &file)
                  .ok());
  ASSERT_TRUE(file->append("new").ok());
  ASSERT_TRUE(file->close().ok());
  faulty.lose_power();
  std::string bytes;
  ASSERT_TRUE(real_io_env().read_file(path("a.txt"), &bytes).ok());
  EXPECT_EQ(bytes, "old!");  // pre-existing bytes survive, the tail does not
}

TEST_F(IoEnvTest, RenameMovesTheTrace) {
  FaultyIoEnv faulty;
  write_file(faulty, path("from.txt"), "abc");
  ASSERT_TRUE(faulty.rename_file(path("from.txt"), path("to.txt")).ok());
  EXPECT_FALSE(faulty.trace(path("from.txt")).has_value());
  const auto trace = faulty.trace(path("to.txt"));
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->written, 3u);
}

/// Records each append() size; the append numbered `fail_at` (1-based)
/// fails.
class RecordingFile final : public WritableFile {
 public:
  RecordingFile(std::vector<std::size_t>* sizes, std::string* bytes,
                std::size_t fail_at)
      : sizes_(sizes), bytes_(bytes), fail_at_(fail_at) {}

  IoResult append(std::string_view data) override {
    sizes_->push_back(data.size());
    if (sizes_->size() == fail_at_) return IoResult::failure("disk full");
    bytes_->append(data);
    return IoResult::success();
  }
  IoResult flush() override { return IoResult::success(); }
  IoResult sync() override { return IoResult::success(); }
  IoResult close() override { return IoResult::success(); }

 private:
  std::vector<std::size_t>* sizes_;
  std::string* bytes_;
  std::size_t fail_at_;
};

TEST(WritableFileBuf, AppendsWholeBuffersAndTheTailAtFinish) {
  std::vector<std::size_t> sizes;
  std::string bytes;
  WritableFileBuf buffer(
      std::make_unique<RecordingFile>(&sizes, &bytes, /*fail_at=*/0));
  std::ostream out(&buffer);
  std::string expected;
  for (int row = 0; row < 20000; ++row) {
    const std::string line = "row " + std::to_string(row) + "\n";
    out << line;
    expected += line;
  }
  ASSERT_TRUE(buffer.finish().ok());
  EXPECT_EQ(bytes, expected);
  ASSERT_EQ(sizes.size(), expected.size() / WritableFileBuf::kBufferBytes + 1);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], WritableFileBuf::kBufferBytes);
  }
}

TEST(WritableFileBuf, KeepsTheFirstFailureAndStopsWriting) {
  std::vector<std::size_t> sizes;
  std::string bytes;
  WritableFileBuf buffer(
      std::make_unique<RecordingFile>(&sizes, &bytes, /*fail_at=*/1));
  std::ostream out(&buffer);
  for (int row = 0; row < 40000; ++row) out << "row " << row << "\n";
  EXPECT_TRUE(out.bad());
  const IoResult result = buffer.finish();
  EXPECT_EQ(result.message, "disk full");
  EXPECT_EQ(sizes.size(), 1u);  // nothing after the failed append
  EXPECT_TRUE(bytes.empty());
}

}  // namespace
}  // namespace mergescale::util
