// Tests for dse::Command, the one command representation behind tytra-cc
// and tytra-dsed: argv -> Command -> request frame -> Command round trips
// (the client's encoding and the daemon's decoding can never drift),
// field validation of untrusted request frames, and a seeded, time-boxed
// mutation loop over the request decoder. The loop's corpus is the
// requests the CLI encodes for the CI smoke commands; every mutant must
// either be rejected with a diagnostic or decode into a command whose
// encoding is a fixed point. Run under UBSan (with float-cast-overflow),
// an out-of-range number cast anywhere in the decoder aborts the loop.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "tytra/dse/command.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/support/json.hpp"
#include "tytra/support/rng.hpp"

namespace {

using namespace tytra;
using dse::Command;

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at < line.size()) {
    const std::size_t end = line.find(' ', at);
    out.push_back(line.substr(at, end - at));
    at = end == std::string::npos ? line.size() : end + 1;
  }
  return out;
}

Command parsed(const std::string& line) {
  auto cmd = dse::parse_args(split(line));
  EXPECT_TRUE(cmd.ok()) << line << ": " << cmd.error_message();
  return cmd.ok() ? std::move(cmd).take() : Command{};
}

Result<Command> decoded(const std::string& frame) {
  auto value = json::parse(frame);
  if (!value.ok()) return value.diag();
  return dse::decode(value.value());
}

/// A generated `.tir` design on disk, removed again on scope exit.
struct TempTir {
  TempTir() {
    std::ofstream(path) << ir::print_module(kernels::generate_kernel(7));
  }
  ~TempTir() { std::remove(path.c_str()); }
  std::string path = "test_command_design.tir";
};

// ---------------------------------------------------------------------------
// argv -> Command -> JSON -> Command
// ---------------------------------------------------------------------------

void expect_round_trip(Command cmd, const std::string& label) {
  for (auto& ir : cmd.irs) {
    if (!ir.source) ir.source = "";
  }
  const std::string frame = dse::encode(cmd);
  auto back = decoded(frame);
  ASSERT_TRUE(back.ok()) << label << ": " << back.error_message() << "\n"
                         << frame;
  const Command& got = back.value();
  EXPECT_EQ(got.verb, cmd.verb) << label;
  EXPECT_EQ(got.kernels, cmd.kernels) << label;
  EXPECT_EQ(got.nds, cmd.nds) << label;
  EXPECT_EQ(got.devices, cmd.devices) << label;
  EXPECT_EQ(got.max_lanes, cmd.max_lanes) << label;
  EXPECT_EQ(got.max_steps, cmd.max_steps) << label;
  EXPECT_EQ(got.deadline_ms, cmd.deadline_ms) << label;
  EXPECT_EQ(got.json, cmd.json) << label;
  EXPECT_EQ(got.pareto, cmd.pareto) << label;
  EXPECT_EQ(got.on_error_abort, cmd.on_error_abort) << label;
  EXPECT_EQ(got.fail_on, cmd.fail_on) << label;
  ASSERT_EQ(got.irs.size(), cmd.irs.size()) << label;
  for (std::size_t i = 0; i < got.irs.size(); ++i) {
    EXPECT_EQ(got.irs[i].name, cmd.irs[i].name) << label;
    EXPECT_EQ(got.irs[i].source, cmd.irs[i].source) << label;
  }
  EXPECT_EQ(dse::encode(got), frame) << label;
}

TEST(CommandCodec, EveryVerbRoundTripsThroughTheWire) {
  for (const std::string line : {
           "explore sor --nd 8 --max-lanes 8 --device fig15 --pareto --json "
           "--deadline-ms 50",
           "tune hotspot --nd 12 --max-steps 5 --device virtex7-690t",
           "campaign --kernel sor --kernel hotspot --nd 16 --nd 24 "
           "--max-lanes 8 --device fig15 --device stratix-v-gsd8 "
           "--on-error continue --json",
           "campaign",
           "list --json",
           "lint sor lavamd --nd 8 --fail-on warning --json --device fig15",
           "lint",
           "ping --server dsed.sock",
           "shutdown --server dsed.sock",
       }) {
    expect_round_trip(parsed(line), line);
  }
}

TEST(CommandCodec, IrSourcesTravelByContent) {
  TempTir tir;
  for (const std::string& line :
       {"explore --ir " + tir.path + " --nd 4",
        "campaign --kernel sor --ir " + tir.path, "lint --ir " + tir.path,
        "list --ir " + tir.path}) {
    Command cmd = parsed(line);
    ASSERT_TRUE(dse::prepare(cmd).ok()) << line;
    ASSERT_EQ(cmd.irs.size(), 1u);
    ASSERT_TRUE(cmd.irs[0].source.has_value());
    EXPECT_FALSE(cmd.irs[0].source->empty());
    expect_round_trip(cmd, line);
  }
}

TEST(CommandCodec, ArgvOnlySettingsNeverTravel) {
  const Command cmd =
      parsed("explore sor --jobs 3 --snapshot warm.snap --nd 8");
  EXPECT_EQ(cmd.threads, 3u);
  const std::string frame = dse::encode(cmd);
  EXPECT_EQ(frame.find("warm.snap"), std::string::npos) << frame;
  EXPECT_EQ(frame.find("jobs"), std::string::npos) << frame;
}

TEST(CommandParse, ShapesTheWorkloadList) {
  EXPECT_EQ(parsed("explore sor").kernels, std::vector<std::string>{"sor"});
  EXPECT_EQ(parsed("explore --ir a.tir").kernels,
            std::vector<std::string>{"a.tir"});
  EXPECT_EQ(parsed("campaign --kernel sor --ir a.tir").kernels,
            (std::vector<std::string>{"sor", "a.tir"}));
  EXPECT_EQ(parsed("lint sor --ir a.tir").kernels,
            (std::vector<std::string>{"sor", "a.tir"}));
  // explore/tune keep the last --nd; campaign keeps every one.
  EXPECT_EQ(parsed("explore sor --nd 8 --nd 12").nds,
            std::vector<std::uint32_t>{12});
  EXPECT_EQ(parsed("campaign --nd 8 --nd 12").nds,
            (std::vector<std::uint32_t>{8, 12}));
}

TEST(CommandParse, MalformedInvocationsNameTheProblem) {
  const struct {
    const char* line;
    const char* expect;
  } cases[] = {
      {"explore sor --kernel hotspot", "--kernel only applies to campaign"},
      {"explore sor --bogus", "explore: unknown flag '--bogus'"},
      {"explore sor --nd", "--nd requires a value"},
      {"explore sor --nd -1", "is not an unsigned integer"},
      {"tune sor --max-steps 10001", "is not an unsigned integer <= 10000"},
      {"campaign --deadline-ms 0", "not a positive integer"},
      {"campaign --on-error sometimes", "is not continue|abort"},
      {"explore sor --ir a.tir", "not both"},
      {"explore", "needs a kernel name"},
      {"explore sor --device a --device b", "takes one --device"},
      {"explore sor --snapshot s --server d", "the daemon owns the snapshot"},
      {"list --names --server d", "--names cannot be combined"},
      {"lint --nd 0", "is not a positive integer"},
      {"lint --fail-on whenever", "is not error|warning"},
      {"ping", "ping requires --server PATH"},
  };
  for (const auto& c : cases) {
    auto cmd = dse::parse_args(split(c.line));
    ASSERT_FALSE(cmd.ok()) << c.line;
    EXPECT_NE(cmd.diag().message.find(c.expect), std::string::npos)
        << c.line << ": " << cmd.diag().message;
  }
}

// ---------------------------------------------------------------------------
// Request validation
// ---------------------------------------------------------------------------

TEST(CommandDecode, RejectsOutOfRangeAndMistypedFieldsByName) {
  const struct {
    const char* frame;
    const char* field;
  } cases[] = {
      {R"({"cmd": "campaign", "nds": [-1]})", "\"nds\""},
      {R"({"cmd": "campaign", "nds": [1.5]})", "\"nds\""},
      {R"({"cmd": "campaign", "nds": [4294967296]})", "\"nds\""},
      {R"({"cmd": "campaign", "nds": [1e300]})", "\"nds\""},
      {R"({"cmd": "campaign", "nds": ["8"]})", "\"nds\""},
      {R"({"cmd": "campaign", "nds": 8})", "\"nds\""},
      {R"({"cmd": "explore", "kernel": "sor", "nd": -8})", "\"nd\""},
      {R"({"cmd": "explore", "kernel": "sor", "nd": "8"})", "\"nd\""},
      {R"({"cmd": "explore", "kernel": 7})", "\"kernel\""},
      {R"({"cmd": "explore", "kernel": "sor", "max_lanes": 1e10})",
       "\"max_lanes\""},
      {R"({"cmd": "explore", "kernel": "sor", "max_lanes": null})",
       "\"max_lanes\""},
      {R"({"cmd": "tune", "kernel": "sor", "max_steps": 10001})",
       "\"max_steps\""},
      {R"({"cmd": "tune", "kernel": "sor", "max_steps": -1})",
       "\"max_steps\""},
      {R"({"cmd": "campaign", "deadline_ms": 2.5})", "\"deadline_ms\""},
      {R"({"cmd": "campaign", "json": "yes"})", "\"json\""},
      {R"({"cmd": "campaign", "on_error": "sometimes"})", "\"on_error\""},
      {R"({"cmd": "lint", "fail_on": 1})", "\"fail_on\""},
      {R"({"cmd": "lint", "targets": ["sor", 2]})", "\"targets\""},
      {R"({"cmd": "campaign", "devices": "fig15"})", "\"devices\""},
      {R"({"cmd": "list", "irs": [{"name": "a.tir"}]})", "\"irs\""},
  };
  for (const auto& c : cases) {
    auto cmd = decoded(c.frame);
    ASSERT_FALSE(cmd.ok()) << c.frame;
    EXPECT_NE(cmd.diag().message.find(c.field), std::string::npos)
        << c.frame << ": " << cmd.diag().message;
  }
  EXPECT_EQ(decoded(R"({"cmd": "frobnicate"})").diag().message,
            "request: unknown cmd 'frobnicate'");
  EXPECT_EQ(decoded(R"({"cmd": "explore"})").diag().message,
            "request: missing \"kernel\"");
  EXPECT_EQ(decoded(R"({"kernel": "sor"})").diag().message,
            "request: missing \"cmd\"");
}

TEST(CommandDecode, AcceptsTheRequestsExistingClientsSend) {
  for (const char* frame : {
           R"({"cmd": "explore", "kernel": "sor", "nd": 64, "pareto": true})",
           R"({"cmd": "ping"})",
           R"({"cmd": "campaign", "kernels": ["sor", "hotspot"], "nds": [16],
               "max_lanes": 8, "json": true})",
           R"({"cmd": "list", "max_lanes": 16, "json": true,
               "pareto": false, "on_error": "abort"})",
           R"({"cmd": "lint", "targets": ["sor"], "json": false,
               "fail_on": "error", "devices": ["stratix-v-gsd8"]})",
           R"({"cmd": "tune", "kernel": "sor", "max_steps": 10000})",
       }) {
    auto cmd = decoded(frame);
    EXPECT_TRUE(cmd.ok()) << frame << ": " << cmd.error_message();
  }
}

// ---------------------------------------------------------------------------
// Mutation loop over the request decoder
// ---------------------------------------------------------------------------

/// The requests the CLI sends for the CI smoke commands.
std::vector<std::string> smoke_corpus() {
  std::vector<std::string> corpus;
  for (const char* line : {
           "explore sor --nd 8 --max-lanes 8 --device fig15 --pareto",
           "tune sor --nd 8 --device fig15 --json",
           "explore sor --nd 16 --max-lanes 8 --json",
           "campaign --nd 8 --nd 12 --max-lanes 8 --device fig15 "
           "--device stratix-v-gsd8 --json",
           "campaign --kernel sor --kernel hotspot --nd 16 --max-lanes 8 "
           "--json --on-error continue --deadline-ms 100",
           "lint sor lavamd",
           "list --json",
           "ping --server dsed.sock",
       }) {
    corpus.push_back(dse::encode(parsed(line)));
  }
  Command with_ir = parsed("explore --ir design.tir --nd 8");
  with_ir.irs[0].source = "!ngs = 8\ndefine void @main() pipe {\n}\n";
  corpus.push_back(dse::encode(with_ir));
  return corpus;
}

std::string mutate(std::string s, SplitMix64& rng) {
  static const char* const kTokens[] = {
      "-",  "-1", "1.5",  "1e999", "4294967296", "\"", "\\", "[", "]", "{",
      "}",  ",",  ":",    "true",  "null",       "0",  " ", "\"nds\": [",
      "\\u0000", "\"max_steps\": 10001", "\"irs\": [{}]"};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int edits = 1 + static_cast<int>(pick(4));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t at = pick(s.size());
    switch (pick(4)) {
      case 0:  // flip a byte
        s[at] = static_cast<char>(s[at] ^ (1u << pick(8)));
        break;
      case 1:  // insert a JSON-significant token
        s.insert(at, kTokens[pick(std::size(kTokens))]);
        break;
      case 2:  // delete a short run
        s.erase(at, 1 + pick(8));
        break;
      default:  // duplicate a short run
        s.insert(at, s.substr(at, 1 + pick(16)));
        break;
    }
  }
  return s;
}

TEST(CommandDecodeFuzz, MutatedRequestsAreRejectedOrDecodeStably) {
  constexpr std::uint64_t seed = 0xC0FFEE;
  SplitMix64 rng(seed);
  const std::vector<std::string> corpus = smoke_corpus();
  for (const std::string& frame : corpus) {
    ASSERT_TRUE(decoded(frame).ok()) << frame;
  }

  // Time-boxed: at most kIterations mutants or kBudget of wall clock.
  constexpr int kIterations = 20000;
  const auto budget = std::chrono::seconds(2);
  const auto t0 = std::chrono::steady_clock::now();
  int ran = 0;
  int accepted = 0;
  for (; ran < kIterations && std::chrono::steady_clock::now() - t0 < budget;
       ++ran) {
    const std::string mutant =
        mutate(corpus[static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(corpus.size()) - 1))],
               rng);
    auto value = json::parse(mutant);
    if (!value.ok()) continue;
    auto cmd = dse::decode(value.value());
    if (!cmd.ok()) {
      ASSERT_FALSE(cmd.diag().message.empty()) << mutant;
      continue;
    }
    ++accepted;
    // An accepted command re-encodes to a frame that decodes to itself.
    ASSERT_LE(cmd.value().max_steps, 10000u) << mutant;
    const std::string frame = dse::encode(cmd.value());
    auto again = decoded(frame);
    ASSERT_TRUE(again.ok()) << "seed " << seed << " mutant " << mutant
                            << "\nre-encoded " << frame << ": "
                            << again.error_message();
    ASSERT_EQ(dse::encode(again.value()), frame)
        << "seed " << seed << " mutant " << mutant;
  }
  EXPECT_GT(ran, 0);
  EXPECT_GT(accepted, 0) << "the mutator never produced a valid request";
}

}  // namespace
