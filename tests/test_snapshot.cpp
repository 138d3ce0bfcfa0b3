// Persistence-layer tests: the binio container's corruption-detection
// contract (every truncation and every single-bit flip is detected; writes
// are atomic), exact round-trips of cost reports, calibrated databases and
// the variant-keyed cost cache, and the Session snapshot path — warm starts
// byte-identical to cold runs, every failure mode degrading to a cold
// start, and CostCache::clear() from inside a cost() call.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tytra/dse/session.hpp"
#include "tytra/frontend/transform.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/binio.hpp"
#include "tytra/support/failpoint.hpp"

namespace {

using namespace tytra;
using kernels::Registry;

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A unique scratch path in the ctest working directory, removed on
/// destruction.
struct TempPath {
  explicit TempPath(const std::string& tag)
      : path(tag + "_" + std::to_string(counter()++) + ".snap") {}
  ~TempPath() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
  std::string path;
};

const cost::DeviceCostDb& preset_db(const std::string& name) {
  static std::map<std::string, cost::DeviceCostDb> dbs;
  const auto it = dbs.find(name);
  if (it != dbs.end()) return it->second;
  return dbs.emplace(name, cost::DeviceCostDb::calibrate(*target::preset(name)))
      .first->second;
}

dse::Job registry_job(const char* workload, std::uint32_t nd) {
  auto job = Registry::instance().make_job(workload, nd);
  EXPECT_TRUE(job.ok()) << job.error_message();
  return std::move(job).take();
}

/// The identity stat(2) gives a file: a rewrite (tmp + rename) changes
/// the inode, an in-place edit the size or mtime.
struct FileStamp {
  std::uint64_t ino{0};
  std::int64_t mtime_ns{0};
  std::uint64_t size{0};
  bool operator==(const FileStamp&) const = default;
};

FileStamp stamp_of(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return {static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec,
          static_cast<std::uint64_t>(st.st_size)};
}

/// The current snapshot payload version (kSnapshotPayloadVersion).
constexpr std::uint32_t kPayloadVersion = 4;

/// The snapshot container's section ids (see src/dse/session.cpp). Payload
/// v3 and v4 write meta, entries and calibration; v1 and v2 files also
/// carried a variant section (id 3), and their id 2 held structural
/// entries.
constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecEntries = 2;
constexpr std::uint32_t kSecVariant = 3;
constexpr std::uint32_t kSecCalibration = 4;

/// Writes a snapshot container by hand, checksums and all, so a test can
/// place any payload behind a valid frame: the meta section carrying
/// `payload_version`, then `sections` in order.
void write_snapshot(
    const std::string& path, std::uint32_t payload_version,
    std::vector<std::pair<std::uint32_t, std::string>> sections) {
  binio::Writer w;
  binio::Encoder meta;
  meta.u32(payload_version);
  w.add_section(kSecMeta, meta.take());
  for (auto& [id, payload] : sections) w.add_section(id, std::move(payload));
  auto written = w.write(path);
  ASSERT_TRUE(written.ok()) << written.error_message();
}

/// The calibration section of a snapshot holding `db`.
std::string calibration_section(const cost::DeviceCostDb& db) {
  binio::Encoder calib;
  calib.u64(1);
  calib.str(db.device().name);
  calib.u64(db.fingerprint());
  db.save(calib);
  return calib.take();
}

/// A payload-v2 snapshot as the previous release wrote it: structural
/// entries (digest, report) and variant entries (key, design digest).
void write_v2_snapshot(const std::string& path) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));
  const ir::StructuralDigest digest = ir::structural_digest(module);
  binio::Encoder structural;
  structural.u64(digest.key);
  structural.u64(digest.check);
  cost::save_report(structural, cost::cost_design(module, db));
  binio::Encoder variant;
  variant.u64(digest.key ^ 1);
  variant.u64(digest.check ^ 1);
  variant.u64(digest.key);
  variant.u64(digest.check);
  write_snapshot(path, 2,
                 {{kSecEntries, structural.take()},
                  {kSecVariant, variant.take()},
                  {kSecCalibration, calibration_section(db)}});
}

/// `r` as payload v3 encoded a report: v4's fields with the per-function
/// resource table (a count, then name and four doubles each) between the
/// design total and the utilization.
std::string save_report_v3(const cost::CostReport& r) {
  binio::Encoder v4;
  cost::save_report(v4, r);
  binio::Encoder reason;
  reason.str(r.invalid_reason);
  // What follows the total in v4: utilization (4 doubles), fits, seven
  // throughput doubles, the wall, CPKI, valid, the reason and the time.
  const std::size_t tail = 4 * 8 + 1 + 7 * 8 + 1 + 8 + 1 +
                           reason.bytes().size() + 8;
  binio::Encoder table;
  table.u64(1);
  table.str("f0");
  for (const double v : {r.resources.total.aluts, r.resources.total.regs,
                         r.resources.total.bram_bits, r.resources.total.dsps}) {
    table.f64(v);
  }
  std::string bytes = v4.take();
  bytes.insert(bytes.size() - tail, table.bytes());
  return bytes;
}

/// A payload-v3 snapshot as the previous release wrote it: one entries
/// section of (variant key, report with its per-function table).
void write_v3_snapshot(const std::string& path) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const frontend::Variant v = frontend::baseline_variant(job.n);
  const dse::VariantKey key = *job.lower->key(v);
  binio::Encoder entries;
  entries.u64(key.key);
  entries.u64(key.check);
  std::string section = entries.take() +
                        save_report_v3(cost::cost_design(job.lower->lower(v), db));
  write_snapshot(path, 3,
                 {{kSecEntries, std::move(section)},
                  {kSecCalibration, calibration_section(db)}});
}

/// A payload-v1 snapshot as an older release wrote it: structural
/// entries carried the printed IR, variant entries a second report.
void write_v1_snapshot(const std::string& path) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));
  const cost::CostReport report = cost::cost_design(module, db);
  const std::uint64_t key = ir::structural_digest(module).key;
  binio::Encoder structural;
  structural.u64(key);
  structural.u64(~key);
  structural.str(ir::print_module(module) + '\x1f' +
                 std::to_string(db.fingerprint()));
  cost::save_report(structural, report);
  binio::Encoder variant;
  variant.u64(key ^ 1);
  variant.u64(~key ^ 1);
  variant.u64(key);
  variant.u64(~key);
  cost::save_report(variant, report);
  write_snapshot(path, 1,
                 {{kSecEntries, structural.take()},
                  {kSecVariant, variant.take()},
                  {kSecCalibration, calibration_section(db)}});
}

// ---------------------------------------------------------------------------
// binio container
// ---------------------------------------------------------------------------

binio::Writer small_container() {
  binio::Writer w;
  binio::Encoder a;
  a.u32(42);
  a.str("alpha");
  a.f64(3.25);
  w.add_section(1, a.take());
  binio::Encoder b;
  b.u64(7);
  b.i64(-9);
  w.add_section(2, b.take());
  return w;
}

TEST(Binio, RoundTripSectionsAndTypedFields) {
  const std::string bytes = small_container().render();
  auto r = binio::Reader::from_bytes(bytes);
  ASSERT_TRUE(r.ok()) << r.error_message();
  ASSERT_TRUE(r.value().has_section(1));
  ASSERT_TRUE(r.value().has_section(2));
  EXPECT_FALSE(r.value().has_section(3));
  EXPECT_EQ(r.value().format_version(), binio::kFormatVersion);
  EXPECT_EQ(r.value().file_size(), bytes.size());

  binio::Decoder a(r.value().section(1));
  EXPECT_EQ(a.u32(), 42u);
  EXPECT_EQ(a.str(), "alpha");
  EXPECT_EQ(a.f64(), 3.25);
  EXPECT_TRUE(a.at_end());
  ASSERT_TRUE(a.ok()) << a.error();

  binio::Decoder b(r.value().section(2));
  EXPECT_EQ(b.u64(), 7u);
  EXPECT_EQ(b.i64(), -9);
  EXPECT_TRUE(b.at_end());
  ASSERT_TRUE(b.ok()) << b.error();
}

TEST(Binio, EveryTruncationIsDetected) {
  const std::string bytes = small_container().render();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto r = binio::Reader::from_bytes(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
  }
}

TEST(Binio, EverySingleBitFlipIsDetected) {
  // The robustness headline: there is no bit in the file whose flip goes
  // unnoticed — magic/endianness have dedicated checks, the header prefix
  // and table share a checksum, and every payload has its own.
  const std::string bytes = small_container().render();
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      auto r = binio::Reader::from_bytes(std::move(mutated));
      EXPECT_FALSE(r.ok())
          << "flip of bit " << bit << " in byte " << byte << " accepted";
    }
  }
}

TEST(Binio, TrailingBytesRejected) {
  std::string bytes = small_container().render();
  bytes += '\0';
  auto r = binio::Reader::from_bytes(std::move(bytes));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diag().message.find("trailing"), std::string::npos)
      << r.error_message();
}

TEST(Binio, NewerFormatVersionRejectedByName) {
  std::string bytes = small_container().render();
  bytes[8] = static_cast<char>(binio::kFormatVersion + 1);
  auto r = binio::Reader::from_bytes(std::move(bytes));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diag().message.find("unsupported format version"),
            std::string::npos)
      << r.error_message();
}

TEST(Binio, ForeignEndiannessRejectedByName) {
  std::string bytes = small_container().render();
  // Byte-swap the endian tag: exactly what the same file written on a
  // big-endian machine would look like to this reader.
  std::swap(bytes[12], bytes[15]);
  std::swap(bytes[13], bytes[14]);
  auto r = binio::Reader::from_bytes(std::move(bytes));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.diag().message.find("endian"), std::string::npos)
      << r.error_message();
}

TEST(Binio, NonContainerFilesRejected) {
  EXPECT_FALSE(binio::Reader::from_bytes("").ok());
  EXPECT_FALSE(binio::Reader::from_bytes("not a container at all").ok());
  EXPECT_FALSE(binio::Reader::open("/nonexistent/definitely/missing").ok());
}

TEST(Binio, AtomicWriteReplacesAndLeavesNoTemp) {
  TempPath tmp("binio_atomic");
  auto first = small_container().write(tmp.path);
  ASSERT_TRUE(first.ok()) << first.error_message();
  EXPECT_EQ(first.value(), read_file_bytes(tmp.path).size());

  binio::Writer other;
  binio::Encoder e;
  e.str("replacement");
  other.add_section(9, e.take());
  auto second = other.write(tmp.path);
  ASSERT_TRUE(second.ok()) << second.error_message();

  auto r = binio::Reader::open(tmp.path);
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_TRUE(r.value().has_section(9));
  EXPECT_FALSE(r.value().has_section(1));
  std::ifstream leftover(tmp.path + ".tmp");
  EXPECT_FALSE(leftover.good()) << "atomic write left a .tmp file behind";
}

TEST(Binio, DecoderStickyFailureAndCountGuard) {
  binio::Encoder e;
  e.u64(0xffffffffffffffffULL);  // an absurd element count
  const std::string payload = e.take();
  binio::Decoder d(payload);
  const std::uint64_t count = d.u64();
  EXPECT_FALSE(d.fits(count, 8));
  EXPECT_FALSE(d.ok());
  // Sticky: every later read yields zero values, first error retained.
  EXPECT_EQ(d.u64(), 0u);
  EXPECT_EQ(d.str(), "");
  EXPECT_FALSE(d.at_end());
  EXPECT_NE(d.error().find("count"), std::string::npos);
}

TEST(Binio, StringLengthBeyondSectionRejected) {
  binio::Encoder e;
  e.u64(1000);  // claims a 1000-byte string with 3 bytes present
  binio::Encoder tail;
  tail.u8('x');
  tail.u8('y');
  tail.u8('z');
  const std::string payload = e.bytes() + tail.bytes();
  binio::Decoder d(payload);
  EXPECT_EQ(d.str(), "");
  EXPECT_FALSE(d.ok());
}

// ---------------------------------------------------------------------------
// Cost-report and calibration round-trips
// ---------------------------------------------------------------------------

TEST(SnapshotPayloads, CostReportRoundTripsExactly) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));
  const cost::CostReport report = cost::cost_design(module, db);

  binio::Encoder enc;
  cost::save_report(enc, report);
  binio::Decoder dec(enc.bytes());
  const cost::CostReport loaded = cost::load_report(dec);
  EXPECT_TRUE(dec.at_end());
  ASSERT_TRUE(dec.ok()) << dec.error();

  // Bit-exact: the rendered report (which prints doubles) must match.
  EXPECT_EQ(cost::format_report(loaded), cost::format_report(report));
  EXPECT_EQ(loaded.design_name, report.design_name);
  EXPECT_EQ(loaded.valid, report.valid);
  EXPECT_EQ(loaded.resources.fits, report.resources.fits);
  EXPECT_EQ(std::memcmp(&loaded.throughput.ekit, &report.throughput.ekit,
                        sizeof(double)),
            0);
}

TEST(SnapshotPayloads, CostReportBadEnumsFailTheDecoder) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));
  const cost::CostReport report = cost::cost_design(module, db);
  binio::Encoder enc;
  cost::save_report(enc, report);
  std::string payload = enc.take();

  // The config class is the byte right after the length-prefixed name.
  const std::size_t config_at = 8 + report.design_name.size();
  ASSERT_LT(config_at, payload.size());
  payload[config_at] = static_cast<char>(200);
  binio::Decoder dec(payload);
  (void)cost::load_report(dec);
  EXPECT_FALSE(dec.ok());
  EXPECT_NE(dec.error().find("configuration class"), std::string::npos);
}

TEST(SnapshotPayloads, CalibrationRoundTripsExactly) {
  const auto& original = preset_db("fig15");
  binio::Encoder enc;
  original.save(enc);
  binio::Decoder dec(enc.bytes());
  auto loaded = cost::DeviceCostDb::load(dec);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  EXPECT_TRUE(dec.at_end());

  const cost::DeviceCostDb& db = loaded.value();
  EXPECT_EQ(db.device().name, original.device().name);
  EXPECT_EQ(db.calibration_seconds(), original.calibration_seconds());
  // Fingerprint equality is the invalidation contract: a restored
  // database must key the cache exactly as the original did.
  EXPECT_EQ(dse::device_fingerprint(db.device()),
            dse::device_fingerprint(original.device()));

  // The laws and tables must evaluate bit-identically.
  const ir::ScalarType u32 = ir::ScalarType::uint(32);
  for (const ir::Opcode op : {ir::Opcode::Add, ir::Opcode::Mul,
                              ir::Opcode::Div, ir::Opcode::Sqrt}) {
    const ResourceVec a = db.op_cost(op, u32);
    const ResourceVec b = original.op_cost(op, u32);
    EXPECT_EQ(a.aluts, b.aluts);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.bram_bits, b.bram_bits);
    EXPECT_EQ(a.dsps, b.dsps);
  }
  for (const std::uint64_t bytes : {1u << 10, 1u << 16, 1u << 24}) {
    EXPECT_EQ(db.bandwidth().sustained(bytes, ir::AccessPattern::Contiguous),
              original.bandwidth().sustained(bytes,
                                             ir::AccessPattern::Contiguous));
    EXPECT_EQ(db.host_sustained(bytes), original.host_sustained(bytes));
  }

  // And the whole cost model must agree byte for byte through it (modulo
  // the wall-clock estimation stamp, which differs per call by nature).
  dse::Job job = registry_job("sor", 8);
  const ir::Module module =
      job.lower->lower(frontend::baseline_variant(job.n));
  cost::CostReport via_loaded = cost::cost_design(module, db);
  cost::CostReport via_original = cost::cost_design(module, original);
  via_loaded.estimate_seconds = 0;
  via_original.estimate_seconds = 0;
  EXPECT_EQ(cost::format_report(via_loaded), cost::format_report(via_original));
}

TEST(SnapshotPayloads, StoredFingerprintEqualsTheDeviceFingerprint) {
  // The database hashes its device once; every lookup reads that value,
  // so it must be the one device_fingerprint() gives, after calibrate()
  // and after a load.
  for (const std::string& name : target::preset_names()) {
    const cost::DeviceCostDb& db = preset_db(name);
    EXPECT_EQ(db.fingerprint(), dse::device_fingerprint(db.device())) << name;
    binio::Encoder enc;
    db.save(enc);
    binio::Decoder dec(enc.bytes());
    auto loaded = cost::DeviceCostDb::load(dec);
    ASSERT_TRUE(loaded.ok()) << loaded.error_message();
    EXPECT_EQ(loaded.value().fingerprint(),
              dse::device_fingerprint(loaded.value().device()))
        << name;
    EXPECT_EQ(loaded.value().fingerprint(), db.fingerprint()) << name;
  }

  // And through a Session snapshot: the restored database a second
  // session claims.
  TempPath tmp("fingerprint_session");
  double calib_seconds = 0;
  {
    dse::SessionOptions so;
    so.snapshot_path = tmp.path;
    dse::Session session(so);
    calib_seconds =
        session.add_device(*target::preset("virtex7-690t")).calibration_seconds();
    ASSERT_TRUE(session.save_snapshot().ok());
  }
  dse::SessionOptions so;
  so.snapshot_path = tmp.path;
  dse::Session session(so);
  const auto& db = session.add_device(*target::preset("virtex7-690t"));
  EXPECT_EQ(db.calibration_seconds(), calib_seconds) << "not restored";
  EXPECT_EQ(db.fingerprint(), dse::device_fingerprint(db.device()));
}

TEST(SnapshotPayloads, CalibrationUnderAForeignFingerprintIsRejected) {
  const auto& db = preset_db("fig15");
  TempPath tmp("calib_fingerprint");
  binio::Encoder calib;
  calib.u64(1);
  calib.str(db.device().name);
  calib.u64(db.fingerprint() + 1);
  db.save(calib);
  write_snapshot(tmp.path, kPayloadVersion,
                 {{kSecEntries, {}}, {kSecCalibration, calib.take()}});
  auto verified = dse::verify_snapshot(tmp.path);
  ASSERT_FALSE(verified.ok());
  EXPECT_NE(verified.diag().message.find("does not match its stored "
                                         "fingerprint"),
            std::string::npos)
      << verified.error_message();
}

TEST(SnapshotPayloads, TruncatedCalibrationIsADiagnosticNotACrash) {
  const auto& original = preset_db("fig15");
  binio::Encoder enc;
  original.save(enc);
  const std::string payload = enc.bytes();
  // A spread of truncation points; every one must fail cleanly.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, payload.size() / 4,
        payload.size() / 2, payload.size() - 1}) {
    binio::Decoder dec(std::string_view(payload).substr(0, len));
    auto loaded = cost::DeviceCostDb::load(dec);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << len << " accepted";
  }
}

// ---------------------------------------------------------------------------
// CostCache dump/load
// ---------------------------------------------------------------------------

TEST(SnapshotCache, EntriesRoundTripAndHit) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const frontend::Variant v = frontend::baseline_variant(job.n);

  dse::CostCache first;
  const cost::CostReport fresh = first.cost(v, *job.lower, db);
  binio::Encoder entries;
  first.dump(entries);

  dse::CostCache second;
  binio::Decoder in(entries.bytes());
  auto count = second.load(in);
  ASSERT_TRUE(count.ok()) << count.error_message();
  EXPECT_EQ(count.value(), 1u);
  EXPECT_EQ(second.size(), 1u);

  bool was_hit = false;
  const cost::CostReport warm = second.cost(v, *job.lower, db, &was_hit);
  EXPECT_TRUE(was_hit) << "restored entry did not hit";
  EXPECT_EQ(cost::format_report(warm), cost::format_report(fresh));
}

/// One entry's dump: sor nd=8's baseline variant on stratix-v-gsd8.
std::string one_entry_dump() {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  dse::CostCache cache;
  (void)cache.cost(frontend::baseline_variant(job.n), *job.lower, db);
  binio::Encoder entries;
  cache.dump(entries);
  return entries.take();
}

TEST(SnapshotCache, CorruptDumpFailsLoadWithoutCrashing) {
  // Truncate the payload mid-entry.
  const std::string bytes = one_entry_dump();
  for (const std::size_t len : {bytes.size() / 2, bytes.size() - 1}) {
    dse::CostCache fresh_cache;
    binio::Decoder in(std::string_view(bytes).substr(0, len));
    auto count = fresh_cache.load(in);
    EXPECT_FALSE(count.ok()) << "truncated cache payload accepted";
  }
}

TEST(SnapshotCache, DumpBytesDependOnlyOnTheSetOfKeys) {
  // Enough entries that every one of the 16 shards holds several.
  dse::CostCache first;
  for (const std::string& preset : target::preset_names()) {
    for (const char* workload : {"sor", "hotspot", "lavamd"}) {
      for (const std::uint32_t nd : {16u, 24u, 32u}) {
        dse::Job job = registry_job(workload, nd);
        for (const auto& v : frontend::enumerate_variants(job.n, 16)) {
          (void)first.cost(v, *job.lower, preset_db(preset));
        }
      }
    }
  }
  ASSERT_GT(first.size(), 128u);
  binio::Encoder dumped;
  first.dump(dumped);

  // Decode every entry, then load them in reverse order.
  struct Entry {
    std::uint64_t key, check;
    cost::CostReport report;
  };
  std::vector<Entry> entries;
  binio::Decoder in(dumped.bytes());
  while (in.ok() && in.remaining() > 0) {
    Entry e{in.u64(), in.u64(), {}};
    e.report = cost::load_report(in);
    entries.push_back(std::move(e));
  }
  ASSERT_TRUE(in.ok()) << in.error();
  ASSERT_EQ(entries.size(), first.size());
  binio::Encoder reversed;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    reversed.u64(it->key);
    reversed.u64(it->check);
    cost::save_report(reversed, it->report);
  }
  dse::CostCache second;
  binio::Decoder reload(reversed.bytes());
  ASSERT_TRUE(second.load(reload).ok());

  binio::Encoder redumped;
  second.dump(redumped);
  EXPECT_TRUE(redumped.bytes() == dumped.bytes())
      << "dump order depends on insertion order";
}

TEST(SnapshotCache, AnEntryIsItsKeyAndItsReport) {
  // (key, check, report): two words and the report, nothing else.
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const frontend::Variant v = frontend::baseline_variant(job.n);
  dse::CostCache cache;
  const cost::CostReport report = cache.cost(v, *job.lower, db);
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.variant_size(), cache.size());
  binio::Encoder alone;
  cost::save_report(alone, report);
  EXPECT_EQ(one_entry_dump().size(),
            2 * sizeof(std::uint64_t) + alone.bytes().size());
}

// ---------------------------------------------------------------------------
// Session snapshots: warm-start identity and graceful degradation
// ---------------------------------------------------------------------------

struct SweepRender {
  std::string sweep;
  std::string pareto;
  dse::CacheStats stats;
};

SweepRender run_with_snapshot(const std::string& snapshot_path,
                              const char* workload, std::uint32_t nd,
                              const std::string& preset_name, bool save) {
  dse::SessionOptions so;
  so.num_threads = 1;
  so.snapshot_path = snapshot_path;
  dse::Session session(so);
  session.add_device(*target::preset(preset_name));
  dse::Job job = registry_job(workload, nd);
  job.device = target::preset(preset_name)->name;
  const dse::DseResult result = session.explore(job);
  if (save) {
    auto written = session.save_snapshot();
    EXPECT_TRUE(written.ok()) << written.error_message();
  }
  return SweepRender{dse::format_sweep(result), dse::format_pareto(result),
                     result.cache_stats};
}

TEST(SessionSnapshot, WarmStartIsByteIdenticalAndHitsVariantLevel) {
  struct Case {
    const char* workload;
    std::uint32_t nd;
  };
  const Case cases[] = {{"sor", 8}, {"hotspot", 12}, {"lavamd", 64}};
  for (const auto& c : cases) {
    for (const auto& preset_name : target::preset_names()) {
      TempPath tmp(std::string("session_warm_") + c.workload);
      const SweepRender cold =
          run_with_snapshot(tmp.path, c.workload, c.nd, preset_name, true);
      EXPECT_EQ(cold.stats.variant_hits, 0u);
      // A brand-new session (a "new process" as far as the library state
      // is concerned) loading the snapshot must render the same bytes
      // and answer every variant at the key level without lowering.
      const SweepRender warm =
          run_with_snapshot(tmp.path, c.workload, c.nd, preset_name, false);
      EXPECT_EQ(warm.sweep, cold.sweep) << c.workload << " on " << preset_name;
      EXPECT_EQ(warm.pareto, cold.pareto)
          << c.workload << " on " << preset_name;
      EXPECT_EQ(warm.stats.misses, 0u) << c.workload << " on " << preset_name;
      EXPECT_GT(warm.stats.variant_hits, 0u)
          << c.workload << " on " << preset_name;
    }
  }
}

TEST(SessionSnapshot, RestoredCalibrationIsReusedOnFingerprintMatch) {
  TempPath tmp("session_calib");
  double saved_calib_seconds = 0;
  {
    dse::SessionOptions so;
    so.snapshot_path = tmp.path;
    dse::Session session(so);
    const auto& db = session.add_device(*target::preset("fig15"));
    saved_calib_seconds = db.calibration_seconds();
    auto written = session.save_snapshot();
    ASSERT_TRUE(written.ok()) << written.error_message();
  }
  {
    dse::SessionOptions so;
    so.snapshot_path = tmp.path;
    dse::Session session(so);
    const auto& db = session.add_device(*target::preset("fig15"));
    // The wall-clock of the original calibration is only reproducible by
    // actually restoring it — a recalibration would stamp its own.
    EXPECT_EQ(db.calibration_seconds(), saved_calib_seconds)
        << "matching fingerprint was recalibrated instead of restored";
  }
  {
    // Same name, different device description: the fingerprint mismatch
    // must force a recalibration rather than trust the stale entry.
    dse::SessionOptions so;
    so.snapshot_path = tmp.path;
    dse::Session session(so);
    target::DeviceDesc edited = *target::preset("fig15");
    edited.dram_peak_bw *= 2.0;
    const auto& db = session.add_device(edited);
    EXPECT_EQ(db.device().dram_peak_bw, edited.dram_peak_bw);
    EXPECT_NE(db.calibration_seconds(), saved_calib_seconds)
        << "stale calibration reused despite a changed device";
  }
}

TEST(SessionSnapshot, EveryCorruptionDegradesToColdWithIdenticalOutput) {
  TempPath tmp("session_fuzz");
  const SweepRender cold =
      run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  const std::string good = read_file_bytes(tmp.path);
  ASSERT_FALSE(good.empty());

  auto expect_degraded = [&](const std::string& what) {
    const SweepRender degraded =
        run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", false);
    EXPECT_EQ(degraded.sweep, cold.sweep) << what;
    EXPECT_EQ(degraded.pareto, cold.pareto) << what;
    EXPECT_EQ(degraded.stats.variant_hits, 0u)
        << what << ": corrupt snapshot produced cache hits";
  };

  // Truncations at every section boundary (and inside each section).
  auto reader = binio::Reader::open(tmp.path);
  ASSERT_TRUE(reader.ok()) << reader.error_message();
  std::vector<std::size_t> cut_points{0, 7, 16, 31};
  for (const auto& sec : reader.value().sections()) {
    cut_points.push_back(static_cast<std::size_t>(sec.offset));
    cut_points.push_back(static_cast<std::size_t>(sec.offset + sec.size / 2));
  }
  for (const std::size_t cut : cut_points) {
    if (cut >= good.size()) continue;
    write_file_bytes(tmp.path, good.substr(0, cut));
    expect_degraded("truncation at byte " + std::to_string(cut));
  }

  // Deterministically scattered single-bit flips across the whole file.
  for (std::size_t i = 0; i < 32; ++i) {
    const std::size_t byte = (i * 2654435761u) % good.size();
    std::string mutated = good;
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1u << (i % 8)));
    write_file_bytes(tmp.path, mutated);
    expect_degraded("bit flip in byte " + std::to_string(byte));
  }

  // A future format version.
  {
    std::string mutated = good;
    mutated[8] = static_cast<char>(binio::kFormatVersion + 1);
    write_file_bytes(tmp.path, mutated);
    expect_degraded("newer container version");
  }

  // Garbage that is not a container at all.
  write_file_bytes(tmp.path, "definitely not a snapshot");
  expect_degraded("non-container file");

  // And the valid snapshot still warm-starts after all of that.
  write_file_bytes(tmp.path, good);
  const SweepRender warm =
      run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", false);
  EXPECT_EQ(warm.sweep, cold.sweep);
  EXPECT_GT(warm.stats.variant_hits, 0u);
}

TEST(SessionSnapshot, StaleDeviceFingerprintEntriesNeverHit) {
  // Snapshot taken against one device; the same workload against a
  // different device must miss every restored entry (fingerprints are
  // folded into the keys) and still produce exactly the cold output.
  TempPath tmp("session_stale");
  (void)run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  const SweepRender cold_other =
      run_with_snapshot("", "sor", 8, "fig15", false);
  const SweepRender stale =
      run_with_snapshot(tmp.path, "sor", 8, "fig15", false);
  EXPECT_EQ(stale.sweep, cold_other.sweep);
  EXPECT_EQ(stale.stats.variant_hits, 0u)
      << "entries for another device fingerprint were trusted";
}

TEST(SessionSnapshot, MissingSnapshotIsASilentColdStart) {
  TempPath tmp("session_missing");
  const SweepRender fresh =
      run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", false);
  const SweepRender plain = run_with_snapshot("", "sor", 8, "stratix-v-gsd8",
                                              false);
  EXPECT_EQ(fresh.sweep, plain.sweep);
}

TEST(SessionSnapshot, VerifySnapshotAcceptsGoodRejectsCorrupt) {
  TempPath tmp("session_verify");
  (void)run_with_snapshot(tmp.path, "sor", 8, "stratix-v-gsd8", true);
  auto good = dse::verify_snapshot(tmp.path);
  ASSERT_TRUE(good.ok()) << good.error_message();
  EXPECT_GT(good.value().entries, 0u);
  ASSERT_EQ(good.value().calibrations.size(), 1u);
  EXPECT_EQ(good.value().calibrations[0].first, "stratix-v-gsd8");

  std::string bytes = read_file_bytes(tmp.path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  write_file_bytes(tmp.path, bytes);
  EXPECT_FALSE(dse::verify_snapshot(tmp.path).ok());
}

/// Runs `run_with_snapshot` with stderr captured; returns the render and
/// the captured text.
std::pair<SweepRender, std::string> run_capturing_stderr(
    const std::string& snapshot_path) {
  ::testing::internal::CaptureStderr();
  SweepRender r =
      run_with_snapshot(snapshot_path, "sor", 8, "stratix-v-gsd8", false);
  return {std::move(r), ::testing::internal::GetCapturedStderr()};
}

/// Checks that an older-payload file cold-starts with exactly one
/// structured warning and fails verification, naming both versions.
void expect_old_payload_cold_start(const std::string& path,
                                   std::uint32_t version) {
  const std::string why = "payload version " + std::to_string(version) +
                          " unsupported (this build reads " +
                          std::to_string(kPayloadVersion) + ")";
  const SweepRender cold = run_with_snapshot("", "sor", 8, "stratix-v-gsd8",
                                             false);
  const auto [degraded, err] = run_capturing_stderr(path);
  EXPECT_EQ(degraded.sweep, cold.sweep);
  EXPECT_EQ(degraded.pareto, cold.pareto);
  EXPECT_EQ(degraded.stats.hits, 0u);
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find("tytra: warning: snapshot-load path='" + path + "'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find(why), std::string::npos) << err;
  EXPECT_NE(err.find("action=cold-start"), std::string::npos) << err;
  auto verified = dse::verify_snapshot(path);
  ASSERT_FALSE(verified.ok());
  EXPECT_NE(verified.diag().message.find(why), std::string::npos)
      << verified.error_message();
}

TEST(SessionSnapshot, PayloadV1FileColdStartsWithOneWarning) {
  TempPath tmp("session_v1");
  write_v1_snapshot(tmp.path);
  expect_old_payload_cold_start(tmp.path, 1);
}

TEST(SessionSnapshot, PayloadV2FileColdStartsWithOneWarning) {
  TempPath tmp("session_v2");
  write_v2_snapshot(tmp.path);
  expect_old_payload_cold_start(tmp.path, 2);
}

TEST(SessionSnapshot, PayloadV3FileColdStartsWithOneWarning) {
  TempPath tmp("session_v3");
  write_v3_snapshot(tmp.path);
  expect_old_payload_cold_start(tmp.path, 3);
}

TEST(SessionSnapshot, CorruptEntryRollsBackToCold) {
  // One whole entry, then a truncated one behind a valid container frame:
  // the first entry loads, the second fails, and the load rolls back.
  TempPath tmp("session_corrupt_entry");
  const std::string entry = one_entry_dump();
  write_snapshot(tmp.path, kPayloadVersion,
                 {{kSecEntries, entry + entry.substr(0, entry.size() / 2)}});
  {
    dse::Session session;
    auto loaded = session.load_snapshot(tmp.path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.diag().message.find("cost-cache snapshot"),
              std::string::npos)
        << loaded.error_message();
    EXPECT_EQ(session.cache()->size(), 0u) << "load did not roll back";
  }
  const SweepRender cold = run_with_snapshot("", "sor", 8, "stratix-v-gsd8",
                                             false);
  const auto [degraded, err] = run_capturing_stderr(tmp.path);
  EXPECT_EQ(degraded.sweep, cold.sweep);
  EXPECT_EQ(degraded.stats.hits, 0u)
      << "entries of a rolled-back load answered lookups";
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find("action=cold-start"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Skipping the rewrite of an unchanged snapshot
// ---------------------------------------------------------------------------

/// A session warm from `path`, with sor nd=8 on stratix-v-gsd8 explored.
std::unique_ptr<dse::Session> warm_session(const std::string& path,
                                           std::uint32_t nd = 8) {
  dse::SessionOptions so;
  so.num_threads = 1;
  so.snapshot_path = path;
  auto session = std::make_unique<dse::Session>(so);
  session->add_device(*target::preset("stratix-v-gsd8"));
  dse::Job job = registry_job("sor", nd);
  (void)session->explore(job);
  return session;
}

TEST(SnapshotRewrite, SaveThatAddsNothingLeavesTheFileUntouched) {
  TempPath tmp("rewrite_noop");
  ASSERT_TRUE(warm_session(tmp.path)->save_snapshot().ok());
  const std::string bytes = read_file_bytes(tmp.path);
  const FileStamp before = stamp_of(tmp.path);

  auto session = warm_session(tmp.path);
  ASSERT_EQ(session->cache()->stats().misses, 0u);
  auto saved = session->save_snapshot();
  ASSERT_TRUE(saved.ok()) << saved.error_message();
  EXPECT_EQ(saved.value(), bytes.size()) << "the existing size is returned";
  EXPECT_EQ(stamp_of(tmp.path), before) << "an unchanged snapshot was rewritten";
  EXPECT_EQ(read_file_bytes(tmp.path), bytes);
  std::ifstream leftover(tmp.path + ".tmp");
  EXPECT_FALSE(leftover.good());
}

TEST(SnapshotRewrite, NewEntriesOrCalibrationsAreWritten) {
  TempPath tmp("rewrite_grow");
  ASSERT_TRUE(warm_session(tmp.path)->save_snapshot().ok());
  const FileStamp before = stamp_of(tmp.path);

  // A new NDRange adds cache entries.
  ASSERT_TRUE(warm_session(tmp.path, 12)->save_snapshot().ok());
  const FileStamp grown = stamp_of(tmp.path);
  EXPECT_NE(grown.ino, before.ino) << "new entries were not written";
  EXPECT_GT(grown.size, before.size);

  // A fresh calibration adds a device, even with no new cache entry.
  {
    auto session = warm_session(tmp.path, 12);
    session->add_device(*target::preset("fig15"));
    ASSERT_TRUE(session->save_snapshot().ok());
  }
  EXPECT_NE(stamp_of(tmp.path).ino, grown.ino) << "a calibration was lost";
  auto verified = dse::verify_snapshot(tmp.path);
  ASSERT_TRUE(verified.ok()) << verified.error_message();
  EXPECT_EQ(verified.value().calibrations.size(), 2u);
}

TEST(SnapshotRewrite, FileDeletedOrReplacedAfterTheLoadIsWritten) {
  TempPath tmp("rewrite_replaced");
  ASSERT_TRUE(warm_session(tmp.path)->save_snapshot().ok());
  const std::string good = read_file_bytes(tmp.path);

  {
    auto session = warm_session(tmp.path);
    std::remove(tmp.path.c_str());
    ASSERT_TRUE(session->save_snapshot().ok());
    EXPECT_EQ(read_file_bytes(tmp.path), good) << "deleted file not rewritten";
  }
  {
    auto session = warm_session(tmp.path);
    write_file_bytes(tmp.path, "replaced by another writer");
    ASSERT_TRUE(session->save_snapshot().ok());
    EXPECT_EQ(read_file_bytes(tmp.path), good) << "edited file not rewritten";
  }
  {
    auto session = warm_session(tmp.path);
    TempPath other("rewrite_replacement");
    write_file_bytes(other.path, good);  // same bytes, another inode
    ASSERT_EQ(std::rename(other.path.c_str(), tmp.path.c_str()), 0);
    const FileStamp replaced = stamp_of(tmp.path);
    ASSERT_TRUE(session->save_snapshot().ok());
    EXPECT_NE(stamp_of(tmp.path).ino, replaced.ino)
        << "a file renamed over the loaded one was taken for it";
  }
}

TEST(SnapshotRewrite, SaveToAnotherPathAlwaysWrites) {
  TempPath tmp("rewrite_source");
  TempPath copy("rewrite_copy");
  ASSERT_TRUE(warm_session(tmp.path)->save_snapshot().ok());
  auto session = warm_session(tmp.path);
  auto saved = session->save_snapshot(copy.path);
  ASSERT_TRUE(saved.ok()) << saved.error_message();
  auto verified = dse::verify_snapshot(copy.path);
  ASSERT_TRUE(verified.ok()) << verified.error_message();
  EXPECT_EQ(verified.value().file_bytes, saved.value());
  EXPECT_GT(verified.value().entries, 0u);
}

TEST(SnapshotRewrite, LoadIntoANonEmptySessionNeverSkips) {
  // The session already holds a calibration the file lacks, so the file
  // does not hold everything a save would write.
  TempPath tmp("rewrite_nonempty");
  {
    dse::SessionOptions so;
    so.snapshot_path = tmp.path;
    dse::Session session(so);
    ASSERT_TRUE(session.save_snapshot().ok());  // an empty snapshot
  }
  const FileStamp before = stamp_of(tmp.path);
  dse::Session session;
  session.add_device(*target::preset("fig15"));
  ASSERT_TRUE(session.load_snapshot(tmp.path).ok());
  ASSERT_TRUE(session.save_snapshot(tmp.path).ok());
  EXPECT_NE(stamp_of(tmp.path).ino, before.ino);
  auto verified = dse::verify_snapshot(tmp.path);
  ASSERT_TRUE(verified.ok()) << verified.error_message();
  EXPECT_EQ(verified.value().calibrations.size(), 1u);
}

TEST(SnapshotRewrite, SaveFailpointFiresBeforeTheSkip) {
  TempPath tmp("rewrite_failpoint");
  ASSERT_TRUE(warm_session(tmp.path)->save_snapshot().ok());
  const FileStamp before = stamp_of(tmp.path);
  auto session = warm_session(tmp.path);
  failpoint::Scoped guard("snapshot.save", 100);
  auto saved = session->save_snapshot();
  ASSERT_FALSE(saved.ok()) << "a no-op save swallowed the armed failpoint";
  EXPECT_NE(saved.diag().message.find("snapshot.save"), std::string::npos);
  EXPECT_EQ(stamp_of(tmp.path), before);
}

// ---------------------------------------------------------------------------
// clear() during cost()
// ---------------------------------------------------------------------------

/// A lowerer that re-enters the cache with clear() from inside lower():
/// a deterministic stand-in for clear() racing a lookup in flight.
class ReentrantClearLowerer final : public dse::Lowerer {
 public:
  ReentrantClearLowerer(dse::CostCache* cache, std::shared_ptr<const dse::Lowerer> inner)
      : cache_(cache), inner_(std::move(inner)) {}

  [[nodiscard]] std::optional<dse::VariantKey> key(
      const frontend::Variant& v) const override {
    return inner_->key(v);
  }
  [[nodiscard]] ir::Module lower(const frontend::Variant& v,
                                 ir::BuildArena* arena) const override {
    cache_->clear();  // a cost() call is in flight on this thread
    return inner_->lower(v, arena);
  }

 private:
  dse::CostCache* cache_;
  std::shared_ptr<const dse::Lowerer> inner_;
};

TEST(CacheClear, ClearDuringCostReturnsTheExactReport) {
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Job job = registry_job("sor", 8);
  const frontend::Variant v = frontend::baseline_variant(job.n);
  dse::CostCache cache;
  const ReentrantClearLowerer reentrant(&cache, job.lower);
  bool was_hit = true;
  const cost::CostReport got = cache.cost(v, reentrant, db, &was_hit);
  EXPECT_FALSE(was_hit);
  const std::string a = cost::format_report(got);
  const std::string b =
      cost::format_report(cost::cost_design(job.lower->lower(v), db));
  EXPECT_EQ(a.substr(0, a.rfind("estimated in")),
            b.substr(0, b.rfind("estimated in")));
  EXPECT_EQ(cache.size(), 1u);
  (void)cache.cost(v, reentrant, db, &was_hit);
  EXPECT_TRUE(was_hit) << "the entry inserted after clear() did not hit";
}

}  // namespace
