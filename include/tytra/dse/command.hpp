#pragma once

// The one command executor behind `tytra-cc` and `tytra-dsed`. A Command
// is what a user asked for — explore, tune, campaign, list or lint, with
// its flags — whether it arrived as argv or as a request frame:
//
//   argv ──parse_args──┐                      ┌── tytra-cc: print + exit
//                      ├─ Command ─prepare─plan─execute/render─ Outcome
//   frame ──decode─────┘     └──encode──> frame    └── tytra-dsed: frame
//
// prepare() registers the command's `.tir` sources and expands/validates
// its workload names against kernels::Registry; plan() resolves devices
// into a Session and expands the {workload x size x device} jobs; every
// validation message of both front-ends comes from those two functions.
// render() turns a finished result into the exact stdout, stderr and
// exit code a standalone run prints. The daemon runs a plan's jobs one
// at a time (its fairness unit) and renders through the same functions,
// so CLI/daemon byte identity holds by construction.

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "tytra/dse/session.hpp"
#include "tytra/ir/lint.hpp"
#include "tytra/support/diag.hpp"
#include "tytra/support/json.hpp"
#include "tytra/target/device.hpp"

namespace tytra::dse {

enum class Verb { Explore, Tune, Campaign, List, Lint, Ping, Shutdown };

/// A `.tir` design shipped with a command: registered as a workload under
/// `name` (the path given on the command line).
struct IrSource {
  std::string name;
  /// The file text: set by decode(), read from `name` by prepare() when
  /// the command came from argv.
  std::optional<std::string> source;
};

struct Command {
  Verb verb{Verb::Explore};
  /// Workload names: explore/tune's one kernel, campaign's --kernel list,
  /// lint's targets. prepare() expands an empty campaign/lint list to
  /// every registered workload.
  std::vector<std::string> kernels;
  std::vector<IrSource> irs;
  /// Campaign's --nd list; at most one entry for explore/tune/lint. Empty
  /// means each workload's default dimension.
  std::vector<std::uint32_t> nds;
  /// Device specs (preset name, a preset's device name, or a .tgt path);
  /// empty means stratix-v-gsd8. Explore, tune and lint use the first.
  std::vector<std::string> devices;
  std::uint32_t max_lanes{16};
  std::uint32_t max_steps{12};
  std::uint32_t deadline_ms{0};  ///< per-job budget; 0 = none
  bool json{false};
  bool pareto{false};
  bool on_error_abort{true};
  ir::lint::FailOn fail_on{ir::lint::FailOn::Error};

  // argv only: these never travel in a request frame.
  std::uint32_t threads{0};  ///< --jobs
  std::string snapshot;      ///< --snapshot: warm-start from, save back to
  std::string server;        ///< --server: run through this daemon
  bool names_only{false};    ///< list --names
  bool rules{false};         ///< lint --rules
};

/// Parses a tytra-cc command line without the program name: args[0] is
/// the subcommand (explore|tune|campaign|list|lint|ping|shutdown). The
/// error message is what follows "tytra-cc: "; every parse error exits 2.
Result<Command> parse_args(const std::vector<std::string>& args);

/// The request frame for `cmd` (its wire fields only; the IR sources must
/// already be read, see prepare()).
std::string encode(const Command& cmd);

/// A request frame back into a Command. Rejects a missing or unknown
/// "cmd" and any field of the wrong type or out of range, with a message
/// naming the field; the daemon answers these with exit 2.
Result<Command> decode(const json::Value& request);

/// Registers the command's IR sources (reading them from disk when not
/// yet loaded; a name already registered with identical text is a no-op,
/// with different text an error), expands an empty campaign/lint
/// workload list to the registry's names and rejects unknown names. On
/// success returns the advisory lint lines a front-end prints to stderr
/// (none for the lint verb, whose report is their one rendering).
Result<std::string> prepare(Command& cmd);

/// A prepared command bound to a Session: devices resolved into its
/// device table and the jobs expanded in enumeration order.
struct Plan {
  Command cmd;
  std::vector<Job> jobs;
  std::size_t device_count{0};  ///< distinct devices
};

/// Validates the lane cap and dimensions and resolves devices (calibrating
/// each new one into `session`). Errors carry the message a standalone
/// run prints after "tytra-cc: " and exit 1.
Result<Plan> plan(Session& session, const Command& cmd);

/// A command's complete result: the streams and exit code of a
/// standalone run, or the daemon's final frame.
struct Outcome {
  std::string out;    ///< stdout
  std::string err;    ///< stderr lines of a result (e.g. an interrupt)
  std::string error;  ///< a failure's message, without "tytra-cc: "
  int exit{0};
};

/// Runs the whole plan on `session` and renders it.
Outcome execute(Session& session, const Plan& plan);

/// Renders a finished explore, tune or campaign. When the command names a
/// snapshot it is saved first (save-before-print: a failed save leaves
/// stdout empty); an aborted campaign saves nothing.
Outcome render(Session& session, const Plan& plan, const DseResult& result);
Outcome render(Session& session, const Plan& plan, const TuneResult& result);
Outcome render(Session& session, const Plan& plan,
               const CampaignResult& result);

/// The outcome of an evaluation that threw `error`: CancelledError is the
/// interrupt contract (exit 130), anything else "<verb> failed" (exit 1).
Outcome render_failure(const Plan& plan, std::exception_ptr error);

/// "name1|name2|..." over the device presets.
std::string preset_list();

/// A --device spec: a preset name, a preset's device name (the spelling
/// the tables print), or a readable .tgt file.
Result<target::DeviceDesc> resolve_device(const std::string& spec);

}  // namespace tytra::dse
