// Worker-process substrate: spawn/poll/wait/kill plus the exit-code
// taxonomy the campaign supervisor uses to decide retry vs quarantine.
// All children are /bin/sh one-liners so the tests carry no fixture
// binaries.
#include "common/subprocess.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using repro::common::classify_exit;
using repro::common::ExitClass;
using repro::common::SpawnOptions;
using repro::common::Subprocess;
using repro::common::WaitStatus;

SpawnOptions sh(const std::string& script) {
  SpawnOptions opt;
  opt.argv = {"/bin/sh", "-c", script};
  return opt;
}

WaitStatus run(SpawnOptions opt) {
  auto child = Subprocess::spawn(opt);
  EXPECT_TRUE(child.ok()) << child.status().to_string();
  return child->wait();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(Subprocess, ExitCodesRoundTripThroughWait) {
  for (int code : {0, 2, 3, 4, 7}) {
    const WaitStatus ws = run(sh("exit " + std::to_string(code)));
    EXPECT_TRUE(ws.exited);
    EXPECT_FALSE(ws.signaled);
    EXPECT_EQ(ws.exit_code, code);
  }
}

TEST(Subprocess, ClassifyExitCoversTheTaxonomy) {
  EXPECT_EQ(classify_exit(run(sh("exit 0"))), ExitClass::kOk);
  EXPECT_EQ(classify_exit(run(sh("exit 2"))), ExitClass::kUsageError);
  EXPECT_EQ(classify_exit(run(sh("exit 3"))), ExitClass::kInterrupted);
  EXPECT_EQ(classify_exit(run(sh("exit 4"))), ExitClass::kOkDegraded);
  EXPECT_EQ(classify_exit(run(sh("exit 7"))), ExitClass::kFailed);
}

TEST(Subprocess, DeathBySignalClassifiesAsCrashed) {
  const WaitStatus ws = run(sh("kill -9 $$"));
  EXPECT_TRUE(ws.signaled);
  EXPECT_EQ(ws.signal, SIGKILL);
  EXPECT_EQ(classify_exit(ws), ExitClass::kCrashed);
  EXPECT_NE(ws.to_string().find("9"), std::string::npos);
}

TEST(Subprocess, MissingBinarySurfacesAsSpawnFailed) {
  SpawnOptions opt;
  opt.argv = {"/no/such/binary/anywhere"};
  const WaitStatus ws = run(opt);
  EXPECT_TRUE(ws.exited);
  EXPECT_EQ(ws.exit_code, repro::common::kExitSpawnFailed);
  EXPECT_EQ(classify_exit(ws), ExitClass::kSpawnFailed);
}

TEST(Subprocess, EmptyArgvIsRejectedInTheParent) {
  SpawnOptions opt;
  auto child = Subprocess::spawn(opt);
  EXPECT_FALSE(child.ok());
}

TEST(Subprocess, StdoutAndStderrRedirectToFiles) {
  const std::string dir = ::testing::TempDir() + "/subproc_redirect";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpawnOptions opt = sh("echo out-line; echo err-line >&2");
  opt.stdout_path = dir + "/worker.out";
  opt.stderr_path = dir + "/worker.err";
  const WaitStatus ws = run(opt);
  EXPECT_EQ(ws.exit_code, 0);
  EXPECT_EQ(slurp(opt.stdout_path), "out-line\n");
  EXPECT_EQ(slurp(opt.stderr_path), "err-line\n");
}

TEST(Subprocess, EnvOverridesAndUnsetReachTheChild) {
  ::setenv("REPRO_SUBPROC_DROP", "leaky", 1);
  SpawnOptions opt =
      sh("printf '%s|%s' \"${REPRO_SUBPROC_SET:-missing}\" "
         "\"${REPRO_SUBPROC_DROP:-scrubbed}\"");
  opt.env.emplace_back("REPRO_SUBPROC_SET", "injected");
  opt.env_unset.push_back("REPRO_SUBPROC_DROP");
  opt.stdout_path = ::testing::TempDir() + "/subproc_env.out";
  const WaitStatus ws = run(opt);
  ::unsetenv("REPRO_SUBPROC_DROP");
  EXPECT_EQ(ws.exit_code, 0);
  EXPECT_EQ(slurp(opt.stdout_path), "injected|scrubbed");
}

TEST(Subprocess, PollIsNonBlockingAndEventuallyReaps) {
  auto child = Subprocess::spawn(sh("sleep 0.2; exit 5"));
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE(child->running());
  EXPECT_FALSE(child->poll());  // still asleep
  ASSERT_TRUE(child->wait_for(10.0));
  EXPECT_TRUE(child->poll());
  EXPECT_EQ(child->status().exit_code, 5);
  EXPECT_FALSE(child->running());
}

TEST(Subprocess, WaitForTimesOutWithoutKillingThenKillEscalates) {
  auto child = Subprocess::spawn(sh("exec sleep 30"));
  ASSERT_TRUE(child.ok());
  EXPECT_FALSE(child->wait_for(0.1));
  EXPECT_TRUE(child->running()) << "wait_for must not kill on timeout";
  child->kill(SIGKILL);
  const WaitStatus& ws = child->wait();
  EXPECT_TRUE(ws.signaled);
  EXPECT_EQ(ws.signal, SIGKILL);
  child->kill(SIGKILL);  // no-op after reaping
}

TEST(Subprocess, MoveTransfersTheChild) {
  auto child = Subprocess::spawn(sh("exit 0"));
  ASSERT_TRUE(child.ok());
  Subprocess moved = std::move(*child);
  EXPECT_GT(moved.pid(), 0);
  EXPECT_EQ(moved.wait().exit_code, 0);
}

}  // namespace
