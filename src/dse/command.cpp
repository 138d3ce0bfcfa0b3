#include "tytra/dse/command.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <utility>

#include "tytra/frontend/transform.hpp"
#include "tytra/ir/module.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/strings.hpp"

namespace tytra::dse {

namespace {

constexpr int kExitInterrupted = 130;
constexpr const char* kDefaultDevice = "stratix-v-gsd8";
constexpr std::uint32_t kMaxSteps = 10000;

constexpr std::pair<Verb, std::string_view> kVerbs[] = {
    {Verb::Explore, "explore"}, {Verb::Tune, "tune"},
    {Verb::Campaign, "campaign"}, {Verb::List, "list"},
    {Verb::Lint, "lint"},       {Verb::Ping, "ping"},
    {Verb::Shutdown, "shutdown"}};

std::optional<Verb> find_verb(std::string_view name) {
  for (const auto& [verb, spelling] : kVerbs) {
    if (spelling == name) return verb;
  }
  return std::nullopt;
}

/// The subcommand / request "cmd" spelling.
std::string_view verb_name(Verb verb) {
  for (const auto& [v, spelling] : kVerbs) {
    if (v == verb) return spelling;
  }
  return "unknown";
}

bool single_job(Verb verb) {
  return verb == Verb::Explore || verb == Verb::Tune;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), {});
  return true;
}

bool parse_u32(const std::string& text, std::uint32_t& out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v > 0xffffffffULL) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

std::string kernel_list() {
  return kernels::Registry::instance().names_joined();
}

/// The workload's own problem dimension; 0 (which make_job rejects) for
/// an unknown name.
std::uint32_t default_nd(const std::string& workload) {
  const auto* info = kernels::Registry::instance().find(workload);
  return info != nullptr ? info->default_nd : 0;
}

/// Malformed invocations: one line pointing at the usage text.
Diag flag_error(const std::string& message) {
  return make_error(message + " (see tytra-cc --help)");
}

// ---------------------------------------------------------------------------
// argv
// ---------------------------------------------------------------------------

constexpr unsigned bit(Verb verb) { return 1u << static_cast<unsigned>(verb); }
constexpr unsigned kEvaluating =
    bit(Verb::Explore) | bit(Verb::Tune) | bit(Verb::Campaign);
constexpr unsigned kWorkloadVerbs = kEvaluating | bit(Verb::List) |
                                    bit(Verb::Lint);

/// A tytra-cc flag and the subcommands that accept it.
struct FlagSpec {
  std::string_view name;
  bool takes_value;
  unsigned verbs;
};

constexpr FlagSpec kFlags[] = {
    {"--nd", true, kEvaluating | bit(Verb::Lint)},
    {"--max-lanes", true, kEvaluating},
    {"--jobs", true, kEvaluating},
    {"--max-steps", true, kEvaluating},
    {"--device", true, kEvaluating | bit(Verb::Lint)},
    // The classic mode's spellings of --device.
    {"--preset", true, kEvaluating},
    {"--target", true, kEvaluating},
    {"--kernel", true, bit(Verb::Campaign)},
    {"--ir", true, kWorkloadVerbs},
    {"--snapshot", true, kEvaluating},
    {"--deadline-ms", true, kEvaluating},
    {"--on-error", true, kEvaluating},
    {"--fail-on", true, bit(Verb::Lint)},
    {"--server", true, ~0u},
    {"--pareto", false, kEvaluating},
    {"--json", false, kWorkloadVerbs},
    {"--names", false, bit(Verb::List)},
    {"--rules", false, bit(Verb::Lint)},
};

std::string verbs_joined(unsigned verbs) {
  std::string out;
  for (const auto& [verb, spelling] : kVerbs) {
    if ((verbs & bit(verb)) == 0) continue;
    if (!out.empty()) out += "|";
    out += spelling;
  }
  return out;
}

/// Applies one accepted flag; returns the diagnostic, or "" on success.
std::string apply_flag(Command& cmd, const std::string& flag,
                       const std::string& value) {
  const auto number = [&](std::uint32_t& out, std::uint32_t min,
                          std::uint32_t max, const std::string& what) {
    if (parse_u32(value, out) && out >= min && out <= max) return std::string();
    return flag + ": '" + value + "' is not " + what;
  };
  if (flag == "--nd") {
    const bool lint = cmd.verb == Verb::Lint;
    std::uint32_t nd = 0;
    if (auto err = number(nd, lint ? 1 : 0, 0xffffffffu,
                          lint ? "a positive integer" : "an unsigned integer");
        !err.empty()) {
      return err;
    }
    if (cmd.verb != Verb::Campaign) cmd.nds.clear();
    cmd.nds.push_back(nd);
    return {};
  }
  if (flag == "--max-lanes") {
    return number(cmd.max_lanes, 0, 0xffffffffu, "an unsigned integer");
  }
  if (flag == "--jobs") {
    return number(cmd.threads, 0, 0xffffffffu, "an unsigned integer");
  }
  if (flag == "--max-steps") {
    return number(cmd.max_steps, 0, kMaxSteps,
                  "an unsigned integer <= " + std::to_string(kMaxSteps));
  }
  if (flag == "--deadline-ms") {
    return number(cmd.deadline_ms, 1, 0xffffffffu, "a positive integer");
  }
  if (flag == "--on-error" || flag == "--fail-on") {
    const bool on_error = flag == "--on-error";
    const char* first = on_error ? "continue" : "error";
    const char* second = on_error ? "abort" : "warning";
    if (value != first && value != second) {
      return flag + ": '" + value + "' is not " + first + "|" + second;
    }
    if (on_error) {
      cmd.on_error_abort = value == "abort";
    } else if (value == "warning") {
      cmd.fail_on = ir::lint::FailOn::Warning;
    }
    return {};
  }
  if (flag == "--device" || flag == "--preset" || flag == "--target") {
    cmd.devices.push_back(value);
  } else if (flag == "--kernel") {
    cmd.kernels.push_back(value);
  } else if (flag == "--ir") {
    cmd.irs.push_back(IrSource{value, std::nullopt});
  } else if (flag == "--snapshot") {
    cmd.snapshot = value;
  } else if (flag == "--server") {
    cmd.server = value;
  } else if (flag == "--pareto") {
    cmd.pareto = true;
  } else if (flag == "--json") {
    cmd.json = true;
  } else if (flag == "--names") {
    cmd.names_only = true;
  } else if (flag == "--rules") {
    cmd.rules = true;
  }
  return {};
}

/// The cross-flag rules, once every flag is in. `kernel` is explore/
/// tune's positional workload name.
Result<Command> finish_args(Command cmd, const std::string& kernel) {
  const std::string name(verb_name(cmd.verb));
  if (!cmd.server.empty() && !cmd.snapshot.empty()) {
    return flag_error(name +
                      ": --snapshot cannot be combined with --server (the "
                      "daemon owns the snapshot)");
  }
  if (cmd.server.empty() && (cmd.verb == Verb::Ping ||
                             cmd.verb == Verb::Shutdown)) {
    return flag_error(name + " requires --server PATH");
  }
  if (!cmd.server.empty() && cmd.names_only) {
    return flag_error("list: --names cannot be combined with --server");
  }
  if (!single_job(cmd.verb)) {
    // File workloads join the campaign / lint list under their paths.
    if (cmd.verb == Verb::Campaign || cmd.verb == Verb::Lint) {
      for (const IrSource& ir : cmd.irs) cmd.kernels.push_back(ir.name);
    }
    return cmd;
  }
  if (cmd.irs.size() > 1) {
    return make_error(name +
                      " takes one --ir; use `tytra-cc campaign` for "
                      "multi-design runs");
  }
  if (!cmd.irs.empty() && !kernel.empty()) {
    return make_error(name + " takes either a kernel name or --ir, not both");
  }
  if (cmd.irs.empty() && kernel.empty()) {
    return make_error(name + " needs a kernel name (" + kernel_list() +
                      ") or --ir");
  }
  if (cmd.devices.size() > 1) {
    return make_error(name +
                      " takes one --device; use `tytra-cc campaign` for "
                      "multi-device runs");
  }
  cmd.kernels.push_back(cmd.irs.empty() ? kernel : cmd.irs.front().name);
  return cmd;
}

// ---------------------------------------------------------------------------
// Request frames
// ---------------------------------------------------------------------------

void write_strings(std::string& out, std::string_view key,
                   const std::vector<std::string>& values) {
  out.append(", \"").append(key).append("\": [");
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += i ? ", \"" : "\"";
    json::append_escaped(out, values[i]);
    out += '"';
  }
  out += ']';
}

/// A whole number in [0, max], so the cast to u32 that follows is
/// defined.
bool is_u32(const json::Value& v, std::uint32_t max = 0xffffffffu) {
  if (!v.is_number()) return false;
  const double d = v.number();
  return d >= 0 && d <= max &&
         d == static_cast<double>(static_cast<std::uint64_t>(d));
}

const std::string kU32Range = "an integer in [0, 4294967295]";

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// name -> text of every IR source prepare() registered in this process,
/// for the identical-content idempotency check. Like the Registry it
/// guards, driven from one thread at a time.
std::map<std::string, std::string, std::less<>>& registered_sources() {
  static std::map<std::string, std::string, std::less<>> sources;
  return sources;
}

/// Save-before-print: false, with `o` set to the failure, when the
/// command names a snapshot that cannot be written.
bool save_requested_snapshot(Session& session, const Command& cmd,
                             Outcome& o) {
  if (cmd.snapshot.empty()) return true;
  const auto written = session.save_snapshot(cmd.snapshot);
  if (written.ok()) return true;
  o.error = written.diag().message;
  o.exit = 1;
  return false;
}

Outcome run_list(const Command& cmd) {
  const auto& registry = kernels::Registry::instance();
  Outcome o;
  if (cmd.names_only) {
    for (const auto& info : registry.all()) o.out += info.name + "\n";
  } else {
    o.out = cmd.json ? kernels::format_registry_json(registry)
                     : kernels::format_registry(registry);
  }
  return o;
}

/// Lowers each job's baseline design and runs the ir::lint passes over
/// it against the job's device, composing the whole report off-line: on
/// a failure stdout stays empty.
Outcome run_lint(const Session& session, const Plan& plan) {
  const Command& cmd = plan.cmd;
  Outcome o;
  if (cmd.rules) {
    o.out = ir::lint::format_rules(ir::lint::Registry::instance());
    return o;
  }
  std::string text;
  std::string json = "{\n  \"designs\": [";
  bool failed = false;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const Job& job = plan.jobs[i];
    try {
      const ir::Module module =
          job.lower->lower(frontend::baseline_variant(job.n));
      const ir::lint::LintReport report = ir::lint::run_lint(
          module, ir::lint::Options{session.find_device(job.device)});
      text += ir::lint::format_lint(
          report, job.workload + " (nd " + std::to_string(job.nd) + ")");
      json += i ? ", " : "";
      json += ir::lint::format_lint_json(report, job.workload);
      failed = failed || ir::lint::fails(report, cmd.fail_on);
    } catch (const std::exception& e) {
      o.error = job.workload + ": " + e.what();
      o.exit = 1;
      return o;
    }
  }
  json += "],\n  \"failed\": ";
  json += failed ? "true" : "false";
  json += "\n}\n";
  o.out = cmd.json ? std::move(json) : std::move(text);
  o.exit = failed ? 1 : 0;
  return o;
}

}  // namespace

std::string preset_list() {
  std::string out;
  for (const auto& name : target::preset_names()) {
    if (!out.empty()) out += "|";
    out += name;
  }
  return out;
}

Result<target::DeviceDesc> resolve_device(const std::string& spec) {
  if (auto p = target::preset(spec)) return *p;
  for (const auto& name : target::preset_names()) {
    if (auto p = target::preset(name); p && p->name == spec) return *p;
  }
  std::string text;
  if (!read_file(spec, text)) {
    return make_error("unknown device '" + spec + "' (presets: " +
                      preset_list() + "; or a readable .tgt file)");
  }
  return target::parse_target(text);
}

Result<Command> parse_args(const std::vector<std::string>& args) {
  const auto verb = args.empty() ? std::nullopt : find_verb(args[0]);
  if (!verb) return flag_error("unknown subcommand");
  Command cmd;
  cmd.verb = *verb;
  const std::string name(args[0]);
  std::string kernel;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto spec =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const FlagSpec& f) { return f.name == arg; });
    if (spec == std::end(kFlags)) {
      // Positional words: lint's targets, explore/tune's leading kernel.
      const bool word = arg.empty() || arg[0] != '-';
      if (word && cmd.verb == Verb::Lint) {
        cmd.kernels.push_back(arg);
        continue;
      }
      if (word && single_job(cmd.verb) && i == 1) {
        kernel = arg;
        continue;
      }
      return flag_error(name + ": unknown flag '" + arg + "'");
    }
    if ((spec->verbs & bit(cmd.verb)) == 0) {
      return flag_error(name + ": " + arg + " only applies to " +
                        verbs_joined(spec->verbs));
    }
    std::string value;
    if (spec->takes_value) {
      if (i + 1 >= args.size()) {
        return flag_error(name + ": " + arg + " requires a value");
      }
      value = args[++i];
    }
    if (const std::string err = apply_flag(cmd, arg, value); !err.empty()) {
      return flag_error(name + ": " + err);
    }
  }
  return finish_args(std::move(cmd), kernel);
}

std::string encode(const Command& cmd) {
  std::string out = "{\"cmd\": \"";
  out.append(verb_name(cmd.verb)).append("\"");
  if (cmd.verb == Verb::Ping || cmd.verb == Verb::Shutdown) {
    out += '}';
    return out;
  }
  if (!single_job(cmd.verb)) {
    write_strings(out, cmd.verb == Verb::Lint ? "targets" : "kernels",
                  cmd.kernels);
  } else if (!cmd.kernels.empty()) {
    out += ", \"kernel\": \"";
    json::append_escaped(out, cmd.kernels.front());
    out += '"';
  }
  if (cmd.verb == Verb::Campaign) {
    out += ", \"nds\": [";
    for (std::size_t i = 0; i < cmd.nds.size(); ++i) {
      out += i ? ", " : "";
      out += std::to_string(cmd.nds[i]);
    }
    out += ']';
  } else if (!cmd.nds.empty()) {
    out += ", \"nd\": " + std::to_string(cmd.nds.front());
  }
  out += ", \"max_lanes\": " + std::to_string(cmd.max_lanes) +
         ", \"max_steps\": " + std::to_string(cmd.max_steps) +
         ", \"deadline_ms\": " + std::to_string(cmd.deadline_ms);
  out += cmd.json ? ", \"json\": true" : ", \"json\": false";
  out += cmd.pareto ? ", \"pareto\": true" : ", \"pareto\": false";
  out += cmd.on_error_abort ? ", \"on_error\": \"abort\""
                            : ", \"on_error\": \"continue\"";
  out += cmd.fail_on == ir::lint::FailOn::Warning
             ? ", \"fail_on\": \"warning\""
             : ", \"fail_on\": \"error\"";
  write_strings(out, "devices", cmd.devices);
  out += ", \"irs\": [";
  for (std::size_t i = 0; i < cmd.irs.size(); ++i) {
    out += i ? ", {\"name\": \"" : "{\"name\": \"";
    json::append_escaped(out, cmd.irs[i].name);
    out += "\", \"source\": \"";
    json::append_escaped(out, cmd.irs[i].source.value_or(""));
    out += "\"}";
  }
  out += "]}";
  return out;
}

Result<Command> decode(const json::Value& request) {
  const auto name = request.get_string("cmd");
  if (!name) return make_error("request: missing \"cmd\"");
  const auto verb = find_verb(*name);
  if (!verb) return make_error("request: unknown cmd '" + *name + "'");
  Command cmd;
  cmd.verb = *verb;
  if (single_job(cmd.verb) && request.find("kernel") == nullptr) {
    return make_error("request: missing \"kernel\"");
  }

  // Each present member goes through its reader; the first one that
  // rejects its value names the field.
  std::string err;
  const auto field = [&](std::string_view key, const std::string& expect,
                         const auto& read) {
    const json::Value* v = err.empty() ? request.find(key) : nullptr;
    if (v != nullptr && !read(*v)) {
      err = "request: \"" + std::string(key) + "\" must be " + expect;
    }
  };
  const auto u32 = [](std::uint32_t& out, std::uint32_t max = 0xffffffffu) {
    return [&out, max](const json::Value& v) {
      if (!is_u32(v, max)) return false;
      out = static_cast<std::uint32_t>(v.number());
      return true;
    };
  };
  const auto strings = [](std::vector<std::string>& out) {
    return [&out](const json::Value& v) {
      if (!v.is_array()) return false;
      for (const json::Value& e : v.elements()) {
        if (!e.is_string()) return false;
        out.push_back(e.str());
      }
      return true;
    };
  };
  const auto flag = [](bool& out) {
    return [&out](const json::Value& v) {
      out = v.boolean();
      return v.is_bool();
    };
  };
  const auto choice = [](bool& out, std::string_view yes, std::string_view no) {
    return [&out, yes, no](const json::Value& v) {
      out = v.str() == yes;
      return v.is_string() && (v.str() == yes || v.str() == no);
    };
  };

  if (single_job(cmd.verb)) {
    cmd.kernels.emplace_back();
    field("kernel", "a string", [&](const json::Value& v) {
      cmd.kernels.front() = v.str();
      return v.is_string();
    });
  }
  if (cmd.verb == Verb::Campaign) {
    field("kernels", "an array of strings", strings(cmd.kernels));
    field("nds", "an array of integers in [0, 4294967295]",
          [&](const json::Value& v) {
            if (!v.is_array()) return false;
            for (const json::Value& e : v.elements()) {
              if (!is_u32(e)) return false;
              cmd.nds.push_back(static_cast<std::uint32_t>(e.number()));
            }
            return true;
          });
  } else {
    // lint's "nd": 0 means each workload's default.
    field("nd", kU32Range, [&](const json::Value& v) {
      if (!is_u32(v)) return false;
      const auto nd = static_cast<std::uint32_t>(v.number());
      if (cmd.verb != Verb::Lint || nd != 0) cmd.nds.push_back(nd);
      return true;
    });
  }
  if (cmd.verb == Verb::Lint) {
    field("targets", "an array of strings", strings(cmd.kernels));
  }
  field("max_lanes", kU32Range, u32(cmd.max_lanes));
  field("max_steps", "an integer in [0, " + std::to_string(kMaxSteps) + "]",
        u32(cmd.max_steps, kMaxSteps));
  field("deadline_ms", kU32Range, u32(cmd.deadline_ms));
  field("json", "true or false", flag(cmd.json));
  field("pareto", "true or false", flag(cmd.pareto));
  field("on_error", "\"abort\" or \"continue\"",
        choice(cmd.on_error_abort, "abort", "continue"));
  bool warning = false;
  field("fail_on", "\"error\" or \"warning\"",
        choice(warning, "warning", "error"));
  cmd.fail_on = warning ? ir::lint::FailOn::Warning : ir::lint::FailOn::Error;
  field("devices", "an array of strings", strings(cmd.devices));
  field("irs", "an array of {\"name\", \"source\"} string objects",
        [&](const json::Value& v) {
          if (!v.is_array()) return false;
          for (const json::Value& ir : v.elements()) {
            const auto ir_name = ir.get_string("name");
            const auto source = ir.get_string("source");
            if (!ir_name || !source) return false;
            cmd.irs.push_back(IrSource{*ir_name, *source});
          }
          return true;
        });
  if (!err.empty()) return make_error(err);
  return cmd;
}

Result<std::string> prepare(Command& cmd) {
  std::string notes;
  if (cmd.verb == Verb::Ping || cmd.verb == Verb::Shutdown || cmd.rules) {
    return notes;
  }
  auto& registry = kernels::Registry::instance();
  auto& known = registered_sources();
  for (IrSource& ir : cmd.irs) {
    if (!ir.source) {
      std::string text;
      if (!read_file(ir.name, text)) {
        return make_error("error: cannot read '" + ir.name + "'");
      }
      ir.source = std::move(text);
    }
    if (const auto it = known.find(ir.name); it != known.end()) {
      if (it->second != *ir.source) {
        return make_error("ir workload '" + ir.name +
                          "' is already registered with different content");
      }
      continue;
    }
    // The lint verb lints each design itself, with the device, so it
    // skips the advisory notes.
    std::vector<Diag> lint;
    auto added = kernels::register_file_workload(
        registry, ir.name, ir.name, *ir.source,
        cmd.verb == Verb::Lint ? nullptr : &lint);
    if (!added.ok()) return make_error(added.error_message());
    known.emplace(ir.name, *ir.source);
    for (const Diag& d : lint) {
      notes += "tytra-cc: " + ir.name + ": " + d.to_string() + "\n";
    }
  }
  // "Every workload" means this command's registry view, expanded here:
  // a daemon serving other clients' IR never sees an empty list.
  if ((cmd.verb == Verb::Campaign || cmd.verb == Verb::Lint) &&
      cmd.kernels.empty()) {
    cmd.kernels = registry.names();
  }
  for (const std::string& name : cmd.kernels) {
    if (registry.find(name) != nullptr) continue;
    if (cmd.verb == Verb::Lint) {
      return make_error("unknown workload '" + name + "' (registered: " +
                        kernel_list() + ")");
    }
    return make_error("unknown kernel '" + name + "' (" + kernel_list() + ")");
  }
  return notes;
}

Result<Plan> plan(Session& session, const Command& cmd) {
  Plan p;
  p.cmd = cmd;
  const bool evaluates = single_job(cmd.verb) || cmd.verb == Verb::Campaign;
  if (!evaluates && (cmd.verb != Verb::Lint || cmd.rules)) return p;
  if (evaluates && cmd.max_lanes == 0) {
    return make_error("--max-lanes must be >= 1");
  }

  // Devices: resolve each spec, dedupe by resolved name, keep order. A
  // device already in the (possibly shared) table is reused.
  std::vector<std::string> specs = cmd.devices;
  if (specs.empty()) specs.emplace_back(kDefaultDevice);
  if (cmd.verb != Verb::Campaign) specs.resize(1);
  std::vector<std::string> device_names;
  try {
    for (const auto& spec : specs) {
      auto device = resolve_device(spec);
      if (!device.ok()) return make_error(device.error_message());
      const std::string& name = device.value().name;
      if (session.find_device(name) == nullptr) {
        session.add_device(device.value());
      }
      if (std::find(device_names.begin(), device_names.end(), name) ==
          device_names.end()) {
        device_names.push_back(name);
      }
    }
  } catch (const std::exception& e) {
    return make_error(std::string(verb_name(cmd.verb)) + " failed: " +
                      e.what());
  }
  p.device_count = device_names.size();

  // The {workload x size x device} fan-out in enumeration order (an
  // unprepared, unknown name fails in make_job).
  const auto& registry = kernels::Registry::instance();
  for (const std::string& kernel : cmd.kernels) {
    std::vector<std::uint32_t> sizes = cmd.nds;
    if (sizes.empty()) sizes.push_back(default_nd(kernel));
    for (const std::uint32_t nd : sizes) {
      auto made = registry.make_job(kernel, nd);
      if (!made.ok()) return make_error(made.error_message());
      for (const auto& device : device_names) {
        Job job = made.value();
        job.device = device;
        job.max_lanes = cmd.max_lanes;
        job.max_steps = static_cast<int>(cmd.max_steps);
        job.deadline_seconds = cmd.deadline_ms / 1000.0;
        p.jobs.push_back(std::move(job));
      }
    }
  }
  return p;
}

Outcome execute(Session& session, const Plan& plan) {
  switch (plan.cmd.verb) {
    case Verb::List: return run_list(plan.cmd);
    case Verb::Lint: return run_lint(session, plan);
    case Verb::Ping:
    case Verb::Shutdown: return {};
    default: break;
  }
  try {
    if (plan.cmd.verb == Verb::Explore) {
      return render(session, plan, session.explore(plan.jobs.front()));
    }
    if (plan.cmd.verb == Verb::Tune) {
      return render(session, plan, session.tune(plan.jobs.front()));
    }
    return render(session, plan, session.run(Campaign{plan.jobs}));
  } catch (...) {
    return render_failure(plan, std::current_exception());
  }
}

Outcome render(Session& session, const Plan& plan, const DseResult& result) {
  Outcome o;
  if (!save_requested_snapshot(session, plan.cmd, o)) return o;
  if (plan.cmd.json) {
    o.out = format_sweep_json(result);
    return o;
  }
  o.out = "exploring " + plan.cmd.kernels.front() + " on " +
          plan.jobs.front().device + ": " +
          std::to_string(result.entries.size()) + " variants in " +
          format_fixed(result.explore_seconds, 3) + " s\n" +
          format_sweep(result);
  if (plan.cmd.pareto) {
    o.out += "\npareto frontier (EKIT vs utilization vs bandwidth share):\n" +
             format_pareto(result);
  }
  return o;
}

Outcome render(Session& session, const Plan& plan, const TuneResult& result) {
  Outcome o;
  if (!save_requested_snapshot(session, plan.cmd, o)) return o;
  const Job& job = plan.jobs.front();
  o.out = plan.cmd.json
              ? format_tune_json(result)
              : "tuning " + plan.cmd.kernels.front() + " on " + job.device +
                    " (nd=" + std::to_string(job.nd) + ", " +
                    std::to_string(job.n) + " work-items)\n" +
                    format_tune(result);
  return o;
}

Outcome render(Session& session, const Plan& plan,
               const CampaignResult& result) {
  const Command& cmd = plan.cmd;
  Outcome o;
  std::size_t cancelled = 0;
  for (const auto& jr : result.jobs) {
    if (jr.status.state == JobState::Cancelled) ++cancelled;
  }
  if (cancelled == 0 && cmd.on_error_abort && result.degraded() > 0) {
    // Abort policy (the default): the first casualty fails the whole
    // command before anything reaches stdout, and no snapshot is written.
    for (const auto& jr : result.jobs) {
      if (jr.status.ok()) continue;
      o.error = "campaign: job '" + jr.job.workload +
                "' (nd=" + std::to_string(jr.job.nd) + ", " + jr.job.device +
                ") " + std::string(job_state_name(jr.status.state)) + ": " +
                jr.status.error +
                " (use --on-error continue to keep surviving jobs)";
      o.exit = 1;
      return o;
    }
  }
  if (!save_requested_snapshot(session, cmd, o)) return o;
  if (cmd.json) {
    o.out = format_campaign_json(result);
  } else {
    o.out = "campaign: " + std::to_string(result.jobs.size()) + " jobs (" +
            std::to_string(cmd.kernels.size()) + " kernels x " +
            std::to_string(plan.device_count) + " device(s)) in " +
            format_fixed(result.campaign_seconds, 3) + " s\n";
    o.out += format_campaign(result);
    if (cmd.pareto) {
      o.out += "\nmerged pareto frontier across all jobs:\n";
      o.out += format_campaign_pareto(result);
    }
  }
  if (cancelled > 0) {
    // Interrupted: the completed jobs' results are still the report.
    o.err = "tytra-cc: campaign interrupted (" + std::to_string(cancelled) +
            " of " + std::to_string(result.jobs.size()) +
            " jobs cancelled; completed results above)\n";
    o.exit = kExitInterrupted;
  }
  return o;
}

Outcome render_failure(const Plan& plan, std::exception_ptr error) {
  const std::string verb(verb_name(plan.cmd.verb));
  Outcome o;
  o.exit = 1;
  try {
    std::rethrow_exception(std::move(error));
  } catch (const CancelledError&) {
    o.error = verb + " interrupted";
    o.exit = kExitInterrupted;
  } catch (const std::exception& e) {
    o.error = verb + " failed: " + e.what();
  } catch (...) {
    o.error = verb + " failed: unknown exception";
  }
  return o;
}

}  // namespace tytra::dse
