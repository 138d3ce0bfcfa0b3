#pragma once

// File-backed workloads: the bridge from a textual `.tir` design to the
// DSE stack (ROADMAP item 3). A `.tir` file is parsed (ir::parse_module),
// verified (ir::verify) and wrapped in a dse::KeyedLowerer whose
// fingerprint is the baseline module's structural digest — so identical
// file content at the same problem dimension shares variant-key cache
// entries across jobs and sessions, and any edit to the file (or a
// different --nd) changes the digest and cleanly misses the cache.
//
// Re-parameterization contract: every user constant named `!ND<k>`
// (case-insensitive) is a problem dimension. The loader re-parses the
// file with all of them overridden to the requested `--nd`, so sizes
// written as expressions over them (`!ngs = ND1*ND1*ND1`,
// `memobj @m_p global ui18 x ND1*ND1*ND1`, offsets `!-ND1`) re-derive
// consistently. A file with no `!ND<k>` constants is fixed-size: its
// default_nd is 1 and any other --nd is a structured error.
//
// Lane re-parameterization goes through the same transform layer as the
// built-in kernels: a variant with L par lanes is lowered by
// replicate_lanes, which splits every top-level port (and its Manage-IR
// backing) into L per-lane streams and wraps the entry calls in a `par`
// function — the same shape ModuleBuilder-based kernels emit, so a
// file-backed SOR sweeps byte-identically to the built-in one.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tytra/dse/lowerer.hpp"
#include "tytra/ir/module.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/diag.hpp"

namespace tytra::kernels {

/// A parsed, verified `.tir` design plus what the loader learned about
/// its parameterization.
struct FileWorkload {
  /// The 1-lane design at the requested dimension.
  std::shared_ptr<const ir::Module> baseline;
  /// Lowercased `nd<k>` constant names in definition order; empty for
  /// fixed-size files.
  std::vector<std::string> nd_constants;
  /// The file's own value of the first `!ND<k>` constant (1 when fixed).
  std::uint32_t default_nd{1};
  /// "tir/digest=<key>.<check>" — the baseline's structural digest, the
  /// KeyedLowerer fingerprint (see dse/lowerer.hpp for the contract).
  std::string fingerprint;
};

/// Parses + verifies `source` and digests the baseline; `nd` != 0
/// overrides every `!ND<k>` constant (0 keeps the file's own values).
/// No lint runs here. Errors — lexical, syntactic, semantic (verifier)
/// or a zero NDRange — come back as a Result carrying the first
/// diagnostic with its line/column.
tytra::Result<FileWorkload> load_file_workload(std::string_view source,
                                               std::uint32_t nd = 0);

/// The transform layer's C1 lane replication applied to a parsed
/// baseline: lanes == 1 returns a copy; lanes > 1 replicates every port
/// and its backing mem/stream objects per lane (`p` -> `p_l0`..) with
/// per-lane sizes, and wraps @main's calls in a fresh `par` function.
/// Throws std::invalid_argument when the module has no @main or @main
/// contains anything but calls (checked up front by the loader).
ir::Module replicate_lanes(const ir::Module& baseline, std::uint32_t lanes);

/// Builds the KeyedLowerer for a verified baseline: fingerprint = the
/// module's structural digest, lowering = replicate_lanes at the
/// variant's lane count.
dse::KeyedLowerer file_lowerer(std::shared_ptr<const ir::Module> baseline);

/// Loads `source_text` and registers it in `reg` under `name`, recording
/// `source_path` as the workload's origin (shown by `tytra-cc list`).
/// Parse/verify failures, a non-replicable @main and duplicate names all
/// come back as structured errors (prefixed with `source_path`); on
/// success the workload is explorable exactly like a built-in. The
/// returned pointer is valid until the next registration.
///
/// Load contract: the file is loaded once per (file, nd) per process.
/// The workload's ndrange and make_lowerer hooks share one memo slot,
/// seeded by the registration load, that holds the last loaded
/// dimension; make_job's ndrange(nd) then make_lowerer(nd) pair loads at
/// most once, and the lowerer's fingerprint is the load's digest. The
/// slot is locked, so hooks may run concurrently (a daemon's requests).
///
/// Lint runs here and only here: `lint_out`, when non-null, receives the
/// structural lint findings over the default-dimension baseline (no
/// device is in scope; advisory only, they never fail the registration).
/// A null `lint_out` skips the lint pass.
tytra::Result<const WorkloadInfo*> register_file_workload(
    Registry& reg, std::string name, std::string source_path,
    std::string source_text, std::vector<tytra::Diag>* lint_out = nullptr);

/// Convenience: read `path` from disk and register it under the path as
/// the workload name. Idempotent for a repeated identical path.
tytra::Result<const WorkloadInfo*> register_file_workload(
    Registry& reg, const std::string& path,
    std::vector<tytra::Diag>* lint_out = nullptr);

}  // namespace tytra::kernels
