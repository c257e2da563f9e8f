/// \file test_cli_errors.cpp
/// \brief End-to-end error-path contract of oagrid_cli: bad flags, malformed
/// input files and conflicting options must exit non-zero with a diagnostic
/// a human (or an editor) can act on — malformed files in particular must
/// point at "<file>:<line>:".
///
/// The binary path arrives via the OAGRID_CLI_PATH compile definition (set
/// to $<TARGET_FILE:oagrid_cli> in tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr interleaved (unless redirected)
};

/// Runs the CLI with `args`, capturing both streams and the exit status;
/// `stderr_to` is the shell redirection target of stderr. A positive
/// `timeout_s` bounds the run: a CLI that would never finish is killed and
/// reports timeout(1)'s status 124 instead of blocking the suite.
CliResult run_cli(const std::string& args,
                  const std::string& stderr_to = "&1", int timeout_s = 0) {
  const std::string bound =
      timeout_s > 0 ? "timeout " + std::to_string(timeout_s) + " " : "";
  const std::string command =
      bound + OAGRID_CLI_PATH + " " + args + " 2>" + stderr_to;
  CliResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[512];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr)
    result.output += buffer;
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Writes `text` to a unique temp file; removed in the destructor.
class TempFile {
 public:
  explicit TempFile(const std::string& tag, const std::string& text)
      : path_(fs::temp_directory_path() /
              ("oagrid-cli-errors-" + std::to_string(::getpid()) + "-" + tag)) {
    std::ofstream(path_) << text;
  }
  ~TempFile() {
    std::error_code ec;
    fs::remove(path_, ec);
  }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

TEST(CliErrors, UnknownFlagExitsNonZeroAndNamesTheFlag) {
  const CliResult result = run_cli("simulate --no-such-flag");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("no-such-flag"), std::string::npos)
      << result.output;
}

TEST(CliErrors, UnknownCommandExitsTwoWithUsage) {
  const CliResult result = run_cli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown command"), std::string::npos);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(CliErrors, MissingValueExitsNonZero) {
  const CliResult result = run_cli("simulate --months");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("months"), std::string::npos) << result.output;
}

TEST(CliErrors, MalformedNetworkFileIsLineNumbered) {
  const TempFile file("net.txt", "network 2\nbogus 1 2\n");
  const CliResult result =
      run_cli("simulate --months 2 --network=" + file.path());
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find(file.path() + ":2: "), std::string::npos)
      << result.output;
}

TEST(CliErrors, NetworkLinkOutOfRangeIsLineNumbered) {
  const TempFile file("net-range.txt",
                      "network 2\nlink 0 1 100 0.1\nlink 0 9 100 0.1\n");
  const CliResult result =
      run_cli("simulate --months 2 --network=" + file.path());
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find(file.path() + ":3: "), std::string::npos)
      << result.output;
}

TEST(CliErrors, MissingNetworkFileExitsNonZero) {
  const CliResult result =
      run_cli("simulate --months 2 --network=/nonexistent/net.txt");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("cannot open"), std::string::npos)
      << result.output;
}

TEST(CliErrors, MalformedFailuresFileIsLineNumbered) {
  const TempFile file("faults.txt", "failures 2\nbogus 1 2\n");
  const CliResult result =
      run_cli("grid --months 2 --failures=" + file.path());
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find(file.path() + ":2: "), std::string::npos)
      << result.output;
}

TEST(CliErrors, FailuresFileWithoutHeaderIsLineNumbered) {
  const TempFile file("faults-nohdr.txt", "mtbf 0 100 10\n");
  const CliResult result =
      run_cli("grid --months 2 --failures=" + file.path());
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find(file.path() + ":1: "), std::string::npos)
      << result.output;
}

TEST(CliErrors, MalformedGridFileIsLineNumbered) {
  const TempFile file("grid.txt", "cluster x\nresources nope\n");
  const CliResult result =
      run_cli("grid --months 2 --grid-file=" + file.path());
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find(file.path() + ":2: "), std::string::npos)
      << result.output;
}

TEST(CliErrors, OptionsASubcommandDoesNotReadAreRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {"dynamic --recovery migrate", "--recovery"},
      {"serve --recovery migrate", "--recovery"},
      {"sweep --home 1", "--home"},
      {"simulate --clusters 3", "--clusters"},
      {"simulate --threads 2", "unknown option --threads"},
      {"sweep --threads 2", "unknown option --threads"},
      {"serve --threads 1", "unknown option --threads"}};
  for (const auto& [args, flag] : cases) {
    const CliResult result = run_cli(args);
    EXPECT_NE(result.exit_code, 0) << args;
    EXPECT_NE(result.output.find(flag), std::string::npos) << result.output;
  }
}

TEST(CliErrors, UnknownEstimatorListsTheBackends) {
  const CliResult result = run_cli("serve --estimator middleware");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown estimator 'middleware'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("analytic | sim"), std::string::npos)
      << result.output;
}

TEST(CliErrors, EverySubcommandTakesTheObsPair) {
  for (const char* command : {"schedule", "simulate", "grid", "serve", "sweep",
                              "calibrate", "dynamic", "export"}) {
    const CliResult result = run_cli(std::string(command) + " --help");
    EXPECT_EQ(result.exit_code, 0) << command;
    EXPECT_NE(result.output.find("--metrics"), std::string::npos) << command;
    EXPECT_NE(result.output.find("--trace-out"), std::string::npos) << command;
  }
}

TEST(CliErrors, ObsReportKeepsFileFormatStdoutClean) {
  // export's stdout is DOT (calibrate's a grid file): the report goes to
  // stderr so the output still parses.
  const CliResult result = run_cli("export month --metrics", "/dev/null");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output.rfind("digraph", 0), 0u) << result.output;
  EXPECT_EQ(result.output.find("metrics"), std::string::npos)
      << result.output;
}

TEST(CliErrors, MiddlewareWritesNothingOnStderr) {
  // The library reports through return values: the deadline misses reach
  // stdout through the CLI, and stderr stays empty.
  const std::string args = "grid --months 2 --network --transfer-deadline 0.5";
  const CliResult stderr_only = run_cli(args, "&1 1>/dev/null");
  EXPECT_EQ(stderr_only.exit_code, 0);
  EXPECT_EQ(stderr_only.output, "");
  const CliResult stdout_only = run_cli(args, "/dev/null");
  EXPECT_EQ(stdout_only.exit_code, 0);
  EXPECT_NE(stdout_only.output.find("missed the deadline"), std::string::npos)
      << stdout_only.output;
}

TEST(CliErrors, FailuresWithClustersRunThroughTheMiddleware) {
  const CliResult result = run_cli("grid --months 2 --clusters 3 --failures");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("failures:"), std::string::npos)
      << result.output;
}

/// Bad numeric input must exit 1 with a diagnostic naming `what`, within a
/// bounded time.
void expect_rejected(const std::string& args, const std::string& what) {
  const CliResult result = run_cli(args, "&1", 30);
  EXPECT_EQ(result.exit_code, 1) << args << "\n" << result.output;
  EXPECT_NE(result.output.find(what), std::string::npos) << result.output;
}

TEST(CliErrors, SweepZeroStepIsRejected) {
  expect_rejected("sweep --step 0", "--step");
}

TEST(CliErrors, SweepNegativeStepIsRejected) {
  expect_rejected("sweep --step -4", "--step");
}

TEST(CliErrors, SweepEmptyRangeIsRejected) {
  expect_rejected("sweep --from 40 --to 20", "--from");
}

TEST(CliErrors, DynamicWithoutSeedsIsRejected) {
  expect_rejected("dynamic --seeds 0", "--seeds");
}

// Every main failing means every month re-runs forever: a bound must fail
// the test, not hang it (expect_rejected runs under a timeout).
TEST(CliErrors, TaskFailureProbabilityOfOneIsRejected) {
  expect_rejected("simulate --months 12 --task-failures 1", "--task-failures");
}

TEST(CliErrors, TaskFailureProbabilityAboveOneIsRejected) {
  expect_rejected("simulate --months 12 --task-failures 1.5",
                  "--task-failures");
}

TEST(CliErrors, NegativeTaskFailureProbabilityIsRejected) {
  expect_rejected("simulate --months 12 --task-failures -0.5",
                  "--task-failures");
}

TEST(CliErrors, NegativeJitterIsRejected) {
  expect_rejected("simulate --months 12 --jitter -1", "--jitter");
}

TEST(CliErrors, NanJitterIsRejected) {
  expect_rejected("simulate --months 12 --jitter nan", "--jitter");
}

TEST(CliErrors, SimulateNegativeCheckpointCadenceIsRejected) {
  expect_rejected("simulate --months 12 --failures --checkpoint-months -1",
                  "--checkpoint-months");
}

TEST(CliErrors, GridNegativeCheckpointCadenceIsRejected) {
  expect_rejected("grid --months 12 --failures --checkpoint-months -3",
                  "--checkpoint-months");
}

TEST(CliErrors, ServeNegativeCheckpointCadenceIsRejected) {
  expect_rejected(
      "serve --campaigns alice:3x12 --failures --checkpoint-months -2",
      "--checkpoint-months");
}

// Zero means "none" for each of these; a negative value must not mean it too.
TEST(CliErrors, GridNegativeStepTimeoutIsRejected) {
  expect_rejected("grid --months 2 --step-timeout -5", "--step-timeout");
}

TEST(CliErrors, GridNegativeTransferDeadlineIsRejected) {
  expect_rejected("grid --months 2 --network --transfer-deadline -5",
                  "--transfer-deadline");
}

TEST(CliErrors, GridNanTransferDeadlineIsRejected) {
  expect_rejected("grid --months 2 --network --transfer-deadline nan",
                  "--transfer-deadline");
}

TEST(CliErrors, ServeNegativeQueueCapacityIsRejected) {
  expect_rejected("serve --campaigns alice:3x12 --queue-capacity -1",
                  "--queue-capacity");
}

TEST(CliErrors, ServeNegativeSnapshotCadenceIsRejected) {
  expect_rejected("serve --campaigns alice:3x12 --snapshot-every -3",
                  "--snapshot-every");
}

TEST(CliErrors, CampaignCountsWithTrailingJunkAreRejected) {
  expect_rejected("serve --campaigns alice:3x12abc",
                  "bad campaign 'alice:3x12abc'");
}

TEST(CliErrors, CampaignWeightWithTrailingJunkIsRejected) {
  expect_rejected("serve --campaigns alice:3x12:w2junk",
                  "bad campaign 'alice:3x12:w2junk'");
}

TEST(CliErrors, CampaignArrivalWithTrailingJunkIsRejected) {
  expect_rejected("serve --campaigns alice:3x12@5x",
                  "bad campaign 'alice:3x12@5x'");
}

TEST(CliErrors, CampaignWithoutMonthsIsRejected) {
  expect_rejected("serve --campaigns alice:3x", "bad campaign 'alice:3x'");
}

TEST(CliErrors, GoodPathsStillExitZero) {
  // Guard the guards: the error harness itself must not flag healthy runs.
  EXPECT_EQ(run_cli("simulate --months 2").exit_code, 0);
  const TempFile file("net-ok.txt",
                      "network 2\ninter_default 100 0.01\nintra_default 1000 "
                      "0.001\n");
  EXPECT_EQ(
      run_cli("grid --months 2 --clusters 2 --network=" + file.path())
          .exit_code,
      0);
}

}  // namespace
