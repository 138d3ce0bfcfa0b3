#include "tytra/kernels/file_workload.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <variant>

#include "tytra/ir/lint.hpp"
#include "tytra/ir/parser.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/ir/verifier.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/support/thread_annotations.hpp"

namespace tytra::kernels {

namespace {

/// Lowercased `nd` followed by at least one digit — the re-parameterizable
/// dimension constants ("nd1", "nd2", ...).
bool is_nd_constant(const std::string& key) {
  if (key.size() < 3 || key[0] != 'n' || key[1] != 'd') return false;
  for (std::size_t i = 2; i < key.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(key[i])) == 0) return false;
  }
  return true;
}

std::string digest_fingerprint(const ir::Module& m) {
  const ir::StructuralDigest d = ir::structural_digest(m);
  char buf[64];
  std::snprintf(buf, sizeof buf, "tir/digest=%016llx.%016llx",
                static_cast<unsigned long long>(d.key),
                static_cast<unsigned long long>(d.check));
  return buf;
}

/// The first verifier error, carrying its location; notes how many more
/// there were so a CLI user knows one fix may not be the last.
tytra::Diag first_verify_error(const tytra::DiagBag& diags) {
  const tytra::Diag* first = nullptr;
  std::size_t errors = 0;
  for (const auto& d : diags.all()) {
    if (d.severity != tytra::Severity::Error) continue;
    if (first == nullptr) first = &d;
    ++errors;
  }
  tytra::Diag out = *first;
  if (errors > 1) {
    out.message += " (and " + std::to_string(errors - 1) + " more)";
  }
  return out;
}

/// Lane replication of `baseline`, keyed by `fingerprint` (its digest).
dse::KeyedLowerer keyed_lowerer(std::string fingerprint,
                                std::shared_ptr<const ir::Module> baseline) {
  return dse::KeyedLowerer(
      std::move(fingerprint),
      [m = std::move(baseline)](const frontend::Variant& v) {
        return replicate_lanes(*m, v.lanes());
      });
}

/// What a registered file workload's hooks share: the source text, and
/// a one-slot memo of the last successful load. make_job asks ndrange(nd)
/// and then make_lowerer(nd), and a campaign plans every size of one
/// workload before the next, so one slot answers every repeat while a
/// long-lived daemon still holds one module per file.
class FileSource {
 public:
  FileSource(std::string path, std::string text)
      : path(std::move(path)), text_(std::move(text)) {}

  /// The load at `nd` (0: the file's own values), from the slot when it
  /// holds that dimension. A failure, prefixed with the path, leaves the
  /// slot as it was.
  tytra::Result<FileWorkload> load(std::uint32_t nd) TYTRA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (slot_.baseline == nullptr || nd != slot_nd_) {
      auto loaded = load_file_workload(text_, nd);
      if (!loaded.ok()) {
        tytra::Diag d = loaded.diag();
        d.message = path + ": " + d.message;
        return d;
      }
      slot_ = std::move(loaded).take();
      // nd 0 and the file's default_nd load the same design.
      slot_nd_ = nd == 0 ? slot_.default_nd : nd;
    }
    return slot_;
  }

  const std::string path;

 private:
  const std::string text_;
  Mutex mu_;
  std::uint32_t slot_nd_ TYTRA_GUARDED_BY(mu_){0};
  FileWorkload slot_ TYTRA_GUARDED_BY(mu_);
};

}  // namespace

tytra::Result<FileWorkload> load_file_workload(std::string_view source,
                                               std::uint32_t nd) {
  if (failpoint::fire("workload.parse")) {
    return tytra::make_error("injected fault at failpoint 'workload.parse'");
  }
  // First pass with the file's own values, to discover the ND constants.
  auto first = ir::parse_module(source);
  if (!first.ok()) return first.diag();

  FileWorkload out;
  for (const auto& [key, value] : first.value().constants) {
    if (!is_nd_constant(key)) continue;
    if (out.nd_constants.empty()) {
      if (value < 1 || value > 0xffffffffLL) {
        return tytra::make_error("!" + key + " = " + std::to_string(value) +
                                 " is not a usable problem dimension "
                                 "(expected [1, 2^32))");
      }
      out.default_nd = static_cast<std::uint32_t>(value);
    }
    out.nd_constants.push_back(key);
  }

  ir::ParseOutput parsed = std::move(first).take();
  if (nd != 0 && nd != out.default_nd && !out.nd_constants.empty()) {
    ir::ParseOptions options;
    for (const auto& key : out.nd_constants) {
      options.constants[key] = static_cast<std::int64_t>(nd);
    }
    auto second = ir::parse_module(source, options);
    if (!second.ok()) return second.diag();
    parsed = std::move(second).take();
  } else if (nd != 0 && out.nd_constants.empty() && nd != 1) {
    return tytra::make_error(
        "fixed-size design (no !ND<k> constants): --nd does not apply");
  }

  const auto diags = ir::verify(parsed.module);
  if (diags.has_errors()) return first_verify_error(diags);
  if (parsed.module.meta.global_size == 0) {
    return tytra::make_error("module has no usable !ngs (NDRange size is 0)");
  }

  out.baseline = std::make_shared<const ir::Module>(std::move(parsed.module));
  out.fingerprint = digest_fingerprint(*out.baseline);
  return out;
}

ir::Module replicate_lanes(const ir::Module& baseline, std::uint32_t lanes) {
  if (lanes == 0) {
    throw std::invalid_argument("replicate_lanes: lane count must be >= 1");
  }
  if (lanes == 1) return baseline;
  const ir::Function* main_fn = baseline.entry();
  if (main_fn == nullptr) {
    throw std::invalid_argument("replicate_lanes: module has no @main");
  }
  for (const auto& item : main_fn->body) {
    if (!std::holds_alternative<ir::Call>(item)) {
      throw std::invalid_argument(
          "replicate_lanes: @main must contain only calls");
    }
  }

  // The per-port plan, resolved once for every lane: each port's stream
  // and memory object, and whether this port is the first to reference
  // each. Objects shared by several ports replicate once per lane, at
  // first reference. find_* answers the first object of a name, so one
  // flag per object index is one flag per name.
  struct PortPlan {
    const ir::StreamObject* so{nullptr};
    const ir::MemObject* mo{nullptr};
    bool first_stream{false};
    bool first_mem{false};
  };
  std::vector<PortPlan> plan(baseline.ports.size());
  {
    std::vector<bool> stream_seen(baseline.streamobjs.size(), false);
    std::vector<bool> mem_seen(baseline.memobjs.size(), false);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const ir::PortBinding& port = baseline.ports[i];
      PortPlan& p = plan[i];
      if (!port.streamobj.empty()) {
        p.so = baseline.find_streamobj(port.streamobj);
      }
      if (p.so != nullptr) {
        p.mo = baseline.find_memobj(p.so->memobj);
        const auto s =
            static_cast<std::size_t>(p.so - baseline.streamobjs.data());
        p.first_stream = !stream_seen[s];
        stream_seen[s] = true;
      }
      if (p.mo != nullptr) {
        const auto m =
            static_cast<std::size_t>(p.mo - baseline.memobjs.data());
        p.first_mem = !mem_seen[m];
        mem_seen[m] = true;
      }
    }
  }
  // Which @main call arguments name ports, flattened in call order.
  std::vector<bool> port_arg;
  for (const auto& item : main_fn->body) {
    for (const auto& arg : std::get<ir::Call>(item).args) {
      port_arg.push_back(arg.kind == ir::Operand::Kind::Global &&
                         baseline.find_port(arg.name) != nullptr);
    }
  }
  // Every lane name is a copy of its base name plus one append of the
  // lane's suffix (lane_port_name's spelling, formatted once per lane).
  std::vector<std::string> suffix(lanes);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    suffix[lane] = "_l" + std::to_string(lane);
  }

  ir::Module out;
  out.name = baseline.name + "_x" + std::to_string(lanes);
  out.meta = baseline.meta;

  // Per-lane Manage-IR, in port order — the layout ModuleBuilder-based
  // kernels produce when built at `lanes` directly.
  out.memobjs.reserve(baseline.ports.size() * lanes);
  out.streamobjs.reserve(baseline.ports.size() * lanes);
  out.ports.reserve(baseline.ports.size() * lanes);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    const std::string& sfx = suffix[lane];
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const PortPlan& p = plan[i];
      if (p.first_mem) {
        ir::MemObject& m = out.memobjs.emplace_back(*p.mo);
        m.name += sfx;
        m.size_words = p.mo->size_words % lanes == 0
                           ? p.mo->size_words / lanes
                           : p.mo->size_words / lanes + 1;
      }
      if (p.first_stream) {
        ir::StreamObject& s = out.streamobjs.emplace_back(*p.so);
        s.name += sfx;
        if (p.mo != nullptr) s.memobj += sfx;
      }
      ir::PortBinding& port = out.ports.emplace_back(baseline.ports[i]);
      port.name += sfx;
      if (p.so != nullptr) port.streamobj += sfx;
    }
  }

  out.functions.reserve(baseline.functions.size() + 1);
  for (const auto& f : baseline.functions) {
    if (f.name != "main") out.functions.push_back(f);
  }

  // The par wrapper: @main's call list once per lane, port-named global
  // arguments redirected to the lane's streams.
  std::string wrapper = "f1";
  while (baseline.find_function(wrapper) != nullptr) wrapper += "_";
  ir::Function par;
  par.name = wrapper;
  par.kind = ir::FuncKind::Par;
  par.body.reserve(main_fn->body.size() * lanes);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    std::size_t a = 0;
    for (const auto& item : main_fn->body) {
      ir::Call call = std::get<ir::Call>(item);
      for (auto& arg : call.args) {
        if (port_arg[a++]) arg.name += suffix[lane];
      }
      par.body.emplace_back(std::move(call));
    }
  }
  out.functions.push_back(std::move(par));

  ir::Function entry;
  entry.name = "main";
  entry.kind = main_fn->kind;
  ir::Call call;
  call.callee = wrapper;
  call.kind_annot = ir::FuncKind::Par;
  entry.body.emplace_back(std::move(call));
  out.functions.push_back(std::move(entry));
  return out;
}

dse::KeyedLowerer file_lowerer(std::shared_ptr<const ir::Module> baseline) {
  std::string fingerprint = digest_fingerprint(*baseline);
  return keyed_lowerer(std::move(fingerprint), std::move(baseline));
}

tytra::Result<const WorkloadInfo*> register_file_workload(
    Registry& reg, std::string name, std::string source_path,
    std::string source_text, std::vector<tytra::Diag>* lint_out) {
  auto source = std::make_shared<FileSource>(std::move(source_path),
                                             std::move(source_text));
  auto loaded = source->load(0);
  if (!loaded.ok()) return loaded.diag();
  const FileWorkload& fw = loaded.value();

  // Lane variants need a call-only @main (see replicate_lanes); reject
  // here, at registration, instead of throwing mid-sweep.
  for (const auto& item : fw.baseline->entry()->body) {
    if (!std::holds_alternative<ir::Call>(item)) {
      return tytra::make_error(source->path +
                               ": @main must contain only calls to be "
                               "explorable over lane variants");
    }
  }
  // Advisory static analysis on the verified design: structural rules
  // only (no device at registration), run only when the caller wants the
  // notes, and never a reason to fail the registration.
  if (lint_out != nullptr) {
    *lint_out = ir::lint::run_lint(*fw.baseline).findings.all();
  }

  WorkloadInfo info;
  info.name = std::move(name);
  info.source = source->path;
  info.summary = "file-backed design '" + fw.baseline->name + "'";
  info.nd_help = fw.nd_constants.empty()
                     ? std::string("fixed-size design (--nd does not apply)")
                     : "value for !" + fw.nd_constants.front() +
                           (fw.nd_constants.size() > 1 ? ", ..." : "");
  info.default_nd = fw.default_nd;
  info.ndrange = [source](std::uint32_t nd) -> tytra::Result<std::uint64_t> {
    if (nd == 0) {
      return tytra::make_error(source->path + ": --nd must be positive");
    }
    auto l = source->load(nd);
    if (!l.ok()) return l.diag();
    return l.value().baseline->meta.global_size;
  };
  info.make_lowerer = [source](std::uint32_t nd) {
    auto l = source->load(nd);
    if (!l.ok()) {
      // ndrange() ran first on the same text and dimension (make_job
      // guarantees the order), so this is unreachable short of a caller
      // bypassing validation.
      throw std::runtime_error(l.error_message());
    }
    FileWorkload fw = std::move(l).take();
    return keyed_lowerer(std::move(fw.fingerprint), std::move(fw.baseline));
  };
  return reg.try_add(std::move(info));
}

tytra::Result<const WorkloadInfo*> register_file_workload(
    Registry& reg, const std::string& path,
    std::vector<tytra::Diag>* lint_out) {
  if (const WorkloadInfo* existing = reg.find(path);
      existing != nullptr && existing->source == path) {
    return existing;  // the same path registered twice (e.g. repeated --ir)
  }
  std::ifstream in(path);
  if (!in) {
    return tytra::make_error("cannot read '" + path + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return register_file_workload(reg, path, path, ss.str(), lint_out);
}

}  // namespace tytra::kernels
