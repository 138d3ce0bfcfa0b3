#include "tytra/ir/lint.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rules.hpp"
#include "tytra/support/json.hpp"

namespace tytra::ir::lint {

const Registry& Registry::instance() {
  static Registry reg = [] {
    Registry r;
    register_structure_rules(r);
    register_device_rules(r);
    return r;
  }();
  return reg;
}

void Registry::add(Rule rule) {
  if (rule.info.code.empty() || !rule.run) {
    throw std::invalid_argument(
        "ir::lint::Registry: rule needs a code and a body");
  }
  if (find(rule.info.code) != nullptr) {
    throw std::invalid_argument("ir::lint::Registry: rule code '" +
                                std::string(rule.info.code) +
                                "' is already registered");
  }
  rules_.push_back(std::move(rule));
}

const Rule* Registry::find(std::string_view code) const {
  for (const auto& r : rules_) {
    if (r.info.code == code) return &r;
  }
  return nullptr;
}

LintReport run_lint(const Module& module, const Options& options) {
  const AnalysisSummary summary = summarize(module);
  const Context ctx{module, summary, options.db};
  LintReport report;
  for (const Rule& rule : Registry::instance().rules()) {
    if (rule.info.needs_device && options.db == nullptr) continue;
    Reporter reporter(rule.info, report.findings);
    rule.run(ctx, reporter);
    ++report.rules_run;
  }
  return report;
}

bool fails(const LintReport& report, FailOn fail_on) {
  if (report.errors() > 0) return true;
  return fail_on == FailOn::Warning && report.warnings() > 0;
}

std::string format_lint(const LintReport& report, std::string_view subject) {
  std::string out = "lint ";
  out += subject;
  out += ": ";
  if (report.clean()) {
    out += "clean (" + std::to_string(report.rules_run) + " rules)\n";
    return out;
  }
  const auto plural = [](std::size_t n, const char* word) {
    return std::to_string(n) + " " + word + (n == 1 ? "" : "s");
  };
  std::string counts;
  if (report.errors() > 0) counts += plural(report.errors(), "error");
  if (report.warnings() > 0) {
    counts += counts.empty() ? "" : ", ";
    counts += plural(report.warnings(), "warning");
  }
  if (report.notes() > 0) {
    counts += counts.empty() ? "" : ", ";
    counts += plural(report.notes(), "note");
  }
  out += counts + " (" + std::to_string(report.rules_run) + " rules)\n";
  for (const auto& d : report.findings.all()) {
    out += "  " + d.to_string() + "\n";
  }
  return out;
}

std::string format_lint_json(const LintReport& report, std::string_view name) {
  std::string out = "{\"name\": \"";
  json::append_escaped(out, name);
  out += "\", \"clean\": ";
  out += report.clean() ? "true" : "false";
  out += ", \"findings\": " + report.findings.to_json();
  out += ", \"counts\": {\"errors\": " + std::to_string(report.errors()) +
         ", \"warnings\": " + std::to_string(report.warnings()) +
         ", \"notes\": " + std::to_string(report.notes()) + "}";
  out += ", \"rules_run\": " + std::to_string(report.rules_run) + "}";
  return out;
}

std::string format_rules(const Registry& registry) {
  std::vector<const Rule*> sorted;
  sorted.reserve(registry.rules().size());
  for (const Rule& rule : registry.rules()) sorted.push_back(&rule);
  std::sort(sorted.begin(), sorted.end(), [](const Rule* a, const Rule* b) {
    return a->info.code < b->info.code;
  });
  std::string out = "lint rules (ir::lint::Registry):\n";
  for (const Rule* rule : sorted) {
    out += "  ";
    out += rule->info.code;
    out += "  ";
    const std::string_view sev = severity_name(rule->info.severity);
    out += sev;
    out.append(9 - sev.size(), ' ');  // "warning" + 2 = widest column
    out += rule->info.name;
    out += " - ";
    out += rule->info.summary;
    if (rule->info.needs_device) out += " (needs a device)";
    out += "\n";
  }
  return out;
}

}  // namespace tytra::ir::lint
