// tytra-cc: the TyTra back-end compiler driver (TyBEC). Parses a textual
// TyTra-IR design, verifies it, and either costs it against a target
// device or emits synthesizeable Verilog — the two paths of Fig. 11 —
// or drives the DSE engine over the workload registry through
// dse::Command (dse/command.hpp), in-process or via a tytra-dsed daemon.
//
// Usage: `tytra-cc --help`; the subcommand list, the usage text and the
// dispatch all come from one table (kSubcommands below), and the kernel
// and device lists from kernels::Registry and the target presets.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "tytra/codegen/verilog.hpp"
#include "tytra/cost/calibration.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/dse/cancel.hpp"
#include "tytra/dse/command.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/parser.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/verifier.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/binio.hpp"
#include "tytra/support/framing.hpp"
#include "tytra/support/json.hpp"
#include "tytra/target/device.hpp"

namespace {

using namespace tytra;

/// The process-wide cancellation token the SIGINT handler flips. The DSE
/// session polls it between variant batches, so a long campaign winds
/// down at the next batch boundary instead of dying mid-write.
dse::CancelToken g_cancel;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

extern "C" void handle_signal(int sig) {
  // request_cancel is a relaxed atomic store — async-signal-safe. Restore
  // the default disposition so a second Ctrl-C (or a follow-up SIGTERM
  // from a supervisor's kill escalation) ends the process outright if the
  // cooperative wind-down is not fast enough.
  g_cancel.request_cancel();
  std::signal(sig, SIG_DFL);
}

/// SIGINT and SIGTERM share the cooperative-cancellation contract: wind
/// down at the next variant boundary, keep every completed job's results,
/// exit 130. Ctrl-C and a service manager's stop request look the same.
void install_signal_cancel() {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
}

/// Prints a one-line diagnostic and returns `code`: every failure leaves
/// stdout empty.
int fail(int code, const std::string& message) {
  std::fprintf(stderr, "tytra-cc: %s\n", message.c_str());
  return code;
}

/// A malformed invocation: one line pointing at the usage text, exit 2.
int flag_error(const std::string& message) {
  return fail(2, message + " (see tytra-cc --help)");
}

int run_command(int argc, char** argv);
int run_cache(int argc, char** argv);

/// The subcommands main dispatches on. `usage` follows "tytra-cc <name> "
/// in the usage text, with {kernels} and {presets} expanded; `remote`
/// marks the ones that can run through a tytra-dsed daemon.
struct Subcommand {
  const char* name;
  const char* usage;
  int (*run)(int argc, char** argv);
  bool remote;
};

constexpr Subcommand kSubcommands[] = {
    {"explore",
     "<{kernels} | --ir file.tir> [--nd dim] [--max-lanes n] [--jobs n] "
     "[--pareto] [--json] [--snapshot file] [--deadline-ms n] "
     "[--device {presets}|file.tgt]",
     run_command, true},
    {"tune",
     "<{kernels} | --ir file.tir> [--nd dim] [--max-steps n] [--max-lanes n] "
     "[--json] [--snapshot file] [--deadline-ms n] "
     "[--device {presets}|file.tgt]",
     run_command, true},
    {"campaign",
     "[--kernel name]... [--ir file.tir]... [--nd dim]... "
     "[--device name|file.tgt]... [--max-lanes n] [--jobs n] [--pareto] "
     "[--json] [--snapshot file] [--deadline-ms n] "
     "[--on-error continue|abort]",
     run_command, true},
    {"cache",
     "dump <file> [campaign flags] | load <file> | inspect <file> | "
     "verify <file>",
     run_cache, false},
    {"list", "[--names] [--json] [--ir file.tir]...", run_command, true},
    {"lint",
     "[<kernel>]... [--ir file.tir]... [--nd dim] "
     "[--device {presets}|file.tgt] [--json] [--fail-on error|warning] "
     "[--rules]",
     run_command, true},
    {"ping", "--server SOCKET", run_command, false},
    {"shutdown", "--server SOCKET", run_command, false},
};

const Subcommand* find_subcommand(const std::string& name) {
  for (const Subcommand& sub : kSubcommands) {
    if (name == sub.name) return &sub;
  }
  return nullptr;
}

/// "explore|tune|..." over the table, optionally only the remote ones.
std::string subcommand_names(bool remote_only = false) {
  std::string out;
  for (const Subcommand& sub : kSubcommands) {
    if (remote_only && !sub.remote) continue;
    if (!out.empty()) out += "|";
    out += sub.name;
  }
  return out;
}

std::string usage_text() {
  const std::pair<std::string, std::string> fields[] = {
      {"{kernels}", kernels::Registry::instance().names_joined()},
      {"{presets}", dse::preset_list()}};
  std::string out =
      "usage: tytra-cc <design.tirl> [--target file.tgt | --preset name] "
      "[--cost] [--params] [--tree] [--emit-hdl out.v] [--print-ir]\n";
  for (const Subcommand& sub : kSubcommands) {
    std::string line = sub.usage;
    for (const auto& [field, value] : fields) {
      for (auto at = line.find(field); at != std::string::npos;
           at = line.find(field, at + value.size())) {
        line.replace(at, field.size(), value);
      }
    }
    out += "       tytra-cc " + std::string(sub.name) + " " + line + "\n";
  }
  out += "       tytra-cc [" + subcommand_names(true) +
         "] --server SOCKET ...   run via a tytra-dsed daemon (same output, "
         "shared warm cache)\n";
  return out;
}

/// Writes a command's outcome to the process streams; returns its exit.
int emit(const dse::Outcome& o) {
  std::fwrite(o.out.data(), 1, o.out.size(), stdout);
  std::fwrite(o.err.data(), 1, o.err.size(), stderr);
  if (!o.error.empty()) fail(o.exit, o.error);
  return o.exit;
}

/// Runs `cmd` in-process. With `dump` (`cache dump`) a persisted campaign
/// reports the snapshot it wrote instead of its tables.
int run_local(dse::Command& cmd, bool dump = false) {
  auto notes = dse::prepare(cmd);
  if (!notes.ok()) return fail(1, notes.diag().message);
  std::fputs(notes.value().c_str(), stderr);

  dse::SessionOptions so;
  so.num_threads = cmd.threads;
  // A single-shot explore/tune evaluates each variant exactly once, so a
  // per-invocation cache would be pure keying + insert overhead; only a
  // campaign (repeat sizes, sweep-then-tune patterns) warms one.
  // --snapshot changes that calculus: the cache IS the artifact being
  // persisted, and the next process's warm start pays for it.
  so.enable_cache = cmd.verb == dse::Verb::Campaign || !cmd.snapshot.empty();
  so.snapshot_path = cmd.snapshot;
  so.cancel = &g_cancel;
  install_signal_cancel();
  dse::Session session(so);

  auto plan = dse::plan(session, cmd);
  if (!plan.ok()) return fail(1, plan.diag().message);
  dse::Outcome o = dse::execute(session, plan.value());
  if (dump && o.error.empty()) {
    const dse::CostCache* cache = session.cache();
    o.out = "snapshot: wrote " + cmd.snapshot +
            " (entries=" + std::to_string(cache ? cache->size() : 0) +
            " calibrations=" + std::to_string(session.device_names().size()) +
            ")\n";
  }
  return emit(o);
}

/// Sends one request frame and streams the response: per-job progress
/// frames are consumed silently (the final frame carries the standalone
/// run's full stdout/stderr), "result"/"error" terminate with the
/// daemon's exit code — so `tytra-cc --server ...` is byte- and
/// exit-code-identical to the same command run standalone.
int exchange(int fd, const std::string& request) {
  std::string err;
  if (!framing::write_frame(fd, request, err)) {
    return fail(1, "server write failed: " + err);
  }
  std::string payload;
  for (;;) {
    const framing::ReadStatus st = framing::read_frame(fd, payload, err);
    if (st == framing::ReadStatus::Eof) return fail(1, "server disconnected");
    if (st == framing::ReadStatus::Error) return fail(1, err);
    auto parsed = json::parse(payload);
    if (!parsed.ok() || !parsed.value().is_object()) {
      return fail(1, "bad frame from server: " +
                         (parsed.ok() ? std::string("not an object")
                                      : parsed.diag().message));
    }
    const json::Value frame = std::move(parsed).take();
    const std::string type = frame.get_string("type").value_or("");
    if (type == "job") continue;  // per-job progress; the result frame
                                  // carries the composed stdout
    if (type == "pong") {
      std::printf("%s\n", payload.c_str());
      return 0;
    }
    dse::Outcome o;
    o.exit = static_cast<int>(frame.get_u32("exit").value_or(1));
    if (type == "result") {
      o.out = frame.get_string("stdout").value_or("");
      o.err = frame.get_string("stderr").value_or("");
    } else if (type == "error") {
      o.error = frame.get_string("message").value_or("server error");
    } else {
      return fail(1, "unexpected frame type '" + type + "' from server");
    }
    return emit(o);
  }
}

int run_via_server(const std::string& socket_path, const std::string& request) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return fail(1, "--server path '" + socket_path + "' is too long");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return fail(1, std::string("socket: ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0
          ? exchange(fd, request)
          : fail(1, "cannot connect to server '" + socket_path + "': " +
                        std::strerror(errno) + " (is tytra-dsed running?)");
  ::close(fd);
  return rc;
}

/// Ships `cmd` to the daemon named by --server. The workload names are
/// prepared against THIS process's registry first (the --ir files read
/// and registered, "every workload" expanded, unknown names rejected), so
/// another client's IR registrations on the daemon never leak in and the
/// error paths match a standalone run byte for byte.
int run_remote(dse::Command& cmd) {
  auto notes = dse::prepare(cmd);
  if (!notes.ok()) return fail(1, notes.diag().message);
  std::fputs(notes.value().c_str(), stderr);
  return run_via_server(cmd.server, dse::encode(cmd));
}

/// explore|tune|campaign|list|lint|ping|shutdown: argv -> dse::Command,
/// run in-process or through a daemon (lint --rules is always local).
int run_command(int argc, char** argv) {
  auto parsed =
      dse::parse_args(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.ok()) return fail(2, parsed.diag().message);
  dse::Command cmd = std::move(parsed).take();
  return cmd.server.empty() || cmd.rules ? run_local(cmd) : run_remote(cmd);
}

/// The names of the snapshot container sections, for `cache inspect`.
const char* section_name(std::uint32_t id) {
  switch (id) {
    case 1: return "meta";
    case 2: return "entries";
    case 4: return "calibration";
    default: return "unknown";
  }
}

/// `tytra-cc cache <dump|load|inspect|verify>`: the snapshot tooling.
/// dump runs a campaign-shaped workload purely to populate and persist a
/// cache; the other three operate on an existing snapshot file.
int run_cache(int argc, char** argv) {
  if (argc < 3) {
    return flag_error("cache needs an action: dump|load|inspect|verify");
  }
  const std::string action = argv[2];

  if (action == "dump") {
    if (argc < 4 || argv[3][0] == '-') {
      return flag_error("cache dump needs an output file before any flags");
    }
    std::vector<std::string> args = {"campaign"};
    args.insert(args.end(), argv + 4, argv + argc);
    auto parsed = dse::parse_args(args);
    if (!parsed.ok()) {
      // campaign's diagnostics, named after this subcommand.
      const std::string& why = parsed.diag().message;
      return fail(2, why.rfind("campaign", 0) == 0
                         ? "cache dump" + why.substr(std::strlen("campaign"))
                         : why);
    }
    dse::Command cmd = std::move(parsed).take();
    if (!cmd.server.empty()) {
      return flag_error("cache dump: --server is not supported (the daemon "
                        "owns its snapshot; use tytra-dsed --snapshot)");
    }
    cmd.snapshot = argv[3];
    return run_local(cmd, /*dump=*/true);
  }

  if (action != "load" && action != "inspect" && action != "verify") {
    return flag_error("unknown cache action '" + action +
                      "' (dump|load|inspect|verify)");
  }
  if (argc < 4) {
    return flag_error("cache " + action + " needs a snapshot file");
  }
  if (argc > 4) {
    return flag_error("cache " + action + " takes exactly one snapshot file");
  }
  const std::string path = argv[3];

  if (action == "load") {
    // An explicit load is a command, not a warm-start opportunity: unlike
    // --snapshot (which degrades to cold), a file that cannot be loaded
    // is a hard error here.
    dse::Session session;
    const auto stats = session.load_snapshot(path);
    if (!stats.ok()) return fail(1, "cache load: " + stats.diag().message);
    std::printf("loaded %s: entries=%zu calibrations=%zu\n", path.c_str(),
                stats.value().entries, stats.value().calibrations);
    return 0;
  }

  // inspect / verify: the full offline integrity + payload walk.
  const auto summary = dse::verify_snapshot(path);
  if (!summary.ok()) {
    std::fprintf(stderr, "tytra-cc: cache %s: %s: %s\n", action.c_str(),
                 path.c_str(), summary.diag().message.c_str());
    return 1;
  }
  if (action == "verify") {
    std::printf("ok: %s (entries=%zu calibrations=%zu)\n", path.c_str(),
                summary.value().entries, summary.value().calibrations.size());
    return 0;
  }
  const dse::SnapshotSummary& s = summary.value();
  std::printf("snapshot %s: %llu bytes, container v%u, payload v%u\n",
              path.c_str(), static_cast<unsigned long long>(s.file_bytes),
              s.format_version, s.payload_version);
  auto reader = binio::Reader::open(path);
  if (reader.ok()) {
    for (const auto& sec : reader.value().sections()) {
      std::printf("  section %-12s id=%u offset=%llu size=%llu "
                  "checksum=%016llx\n",
                  section_name(sec.id), sec.id,
                  static_cast<unsigned long long>(sec.offset),
                  static_cast<unsigned long long>(sec.size),
                  static_cast<unsigned long long>(sec.checksum));
    }
  }
  std::printf("  entries=%zu\n", s.entries);
  for (const auto& [name, fingerprint] : s.calibrations) {
    std::printf("  calibration %s fingerprint=%016llx\n", name.c_str(),
                static_cast<unsigned long long>(fingerprint));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tytra;

  if (argc >= 2) {
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      std::printf("%s", usage_text().c_str());
      return 0;
    }
    if (const Subcommand* sub = find_subcommand(cmd)) {
      return sub->run(argc, argv);
    }
  }

  std::string input_path;
  std::string target_path;
  std::string preset = "stratix-v-gsd8";
  std::string hdl_path;
  bool do_cost = false;
  bool do_params = false;
  bool do_tree = false;
  bool do_print = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--target" && i + 1 < argc) target_path = argv[++i];
    else if (arg == "--preset" && i + 1 < argc) preset = argv[++i];
    else if (arg == "--cost") do_cost = true;
    else if (arg == "--params") do_params = true;
    else if (arg == "--tree") do_tree = true;
    else if (arg == "--print-ir") do_print = true;
    else if (arg == "--emit-hdl" && i + 1 < argc) hdl_path = argv[++i];
    else if (!arg.empty() && arg[0] != '-' && input_path.empty()) {
      input_path = arg;
    } else if (!arg.empty() && arg[0] == '-') {
      return flag_error("unknown or incomplete flag '" + arg + "'");
    } else {
      return flag_error("unexpected argument '" + arg + "'");
    }
  }
  if (input_path.empty()) {
    std::fputs(usage_text().c_str(), stderr);
    return 2;
  }
  if (!do_cost && !do_params && !do_tree && !do_print && hdl_path.empty()) {
    do_cost = true;
  }

  // --target names a .tgt file, --preset a preset: the same resolution
  // ladder as the DSE subcommands' --device.
  const auto device =
      dse::resolve_device(target_path.empty() ? preset : target_path);
  if (!device.ok()) return fail(1, device.error_message());

  std::ifstream in(input_path);
  if (!in) {
    // A bare word that is neither a readable design nor a subcommand lands
    // here — name both interpretations so a typoed subcommand is obvious.
    std::fprintf(stderr,
                 "tytra-cc: cannot read '%s' (not a design file; subcommands "
                 "are %s)\n",
                 input_path.c_str(), subcommand_names().c_str());
    return 1;
  }

  auto parsed = ir::parse_module(
      std::string(std::istreambuf_iterator<char>(in), {}));
  if (!parsed.ok()) {
    std::fprintf(stderr, "tytra-cc: %s\n", parsed.error_message().c_str());
    return 1;
  }
  for (const auto& w : parsed.value().warnings.all()) {
    std::fprintf(stderr, "tytra-cc: %s\n", w.to_string().c_str());
  }
  const ir::Module module = std::move(parsed).take().module;

  const auto diags = ir::verify(module);
  for (const auto& d : diags.all()) {
    std::fprintf(stderr, "tytra-cc: %s\n", d.to_string().c_str());
  }
  if (diags.has_errors()) return 1;

  if (do_print) {
    std::printf("%s", ir::print_module(module).c_str());
  }
  // One analysis traversal serves every remaining action (tree, params,
  // cost) — the summary bundles what each used to re-derive on its own.
  const ir::AnalysisSummary summary = ir::summarize(module);
  if (do_tree) {
    std::printf("%s", ir::format_config_tree(summary.tree).c_str());
    std::printf("configuration class: %s\n",
                std::string(ir::config_class_name(summary.config)).c_str());
  }
  if (do_params) {
    const ir::DesignParams& p = summary.params;
    std::printf("NGS=%llu NWPT=%.1f NKI=%u Noff=%llu KPD=%d NTO=%.2f NI=%.1f "
                "KNL=%u DV=%u form=%s\n",
                static_cast<unsigned long long>(p.ngs), p.nwpt, p.nki,
                static_cast<unsigned long long>(p.noff), p.kpd, p.nto, p.ni,
                p.knl, p.dv, std::string(ir::exec_form_name(p.form)).c_str());
  }
  if (do_cost) {
    const auto db = cost::DeviceCostDb::calibrate(device.value());
    std::printf("%s",
                cost::format_report(cost::cost_design(module, db, summary))
                    .c_str());
  }
  if (!hdl_path.empty()) {
    const auto design = codegen::emit_verilog(module);
    std::ofstream out(hdl_path);
    if (!out) {
      std::fprintf(stderr, "tytra-cc: cannot write '%s'\n", hdl_path.c_str());
      return 1;
    }
    out << design.source;
    std::printf("tytra-cc: wrote %zu bytes to %s (top %s, KPD %d)\n",
                design.source.size(), hdl_path.c_str(),
                design.top_module.c_str(), design.pipeline_depth);
  }
  return 0;
}
