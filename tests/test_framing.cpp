// Unit tests of the daemon wire-protocol layers: the tytra::json value
// type + parser (the request side; the render side already lives in the
// dse::format_*_json family) and tytra::framing's length-prefixed frame
// transport, including the frame.read / frame.write failpoints.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "tytra/dse/session.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/support/framing.hpp"
#include "tytra/support/json.hpp"
#include "tytra/support/rng.hpp"

namespace {

using tytra::json::Value;

// ---------------------------------------------------------------------------
// json: parsing
// ---------------------------------------------------------------------------

Value parse_ok(const std::string& text) {
  auto r = tytra::json::parse(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.error_message();
  return r.ok() ? std::move(r).take() : Value{};
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").boolean());
  EXPECT_FALSE(parse_ok("false").boolean());
  EXPECT_DOUBLE_EQ(parse_ok("42").number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_ok("-0.5e2").number(), -50.0);
  EXPECT_EQ(parse_ok("\"hi\"").str(), "hi");
}

TEST(Json, ParsesEscapesAndUnicode) {
  EXPECT_EQ(parse_ok(R"("a\nb\t\"\\c")").str(), "a\nb\t\"\\c");
  EXPECT_EQ(parse_ok(R"("A")").str(), "A");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(parse_ok(R"("😀")").str(), "\xF0\x9F\x98\x80");
}

TEST(Json, ObjectLookupIsLastWins) {
  const Value v = parse_ok(R"({"a": 1, "b": 2, "a": 3})");
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("a")->number(), 3.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, TypedHelpersValidate) {
  const Value v = parse_ok(
      R"({"s": "x", "n": 7, "b": true, "neg": -1, "frac": 1.5, "big": 4294967296})");
  EXPECT_EQ(v.get_string("s").value_or(""), "x");
  EXPECT_EQ(v.get_u32("n").value_or(0), 7u);
  EXPECT_TRUE(v.get_bool("b").value_or(false));
  EXPECT_FALSE(v.get_u32("neg").has_value());
  EXPECT_FALSE(v.get_u32("frac").has_value());
  EXPECT_FALSE(v.get_u32("big").has_value());
  EXPECT_FALSE(v.get_string("n").has_value());  // wrong kind
  EXPECT_FALSE(v.get_number("missing").has_value());
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "01", "1 2",
        "{\"a\": 1} trailing", "'single'", "\"bad\\q\""}) {
    EXPECT_FALSE(tytra::json::parse(bad).ok()) << bad;
  }
}

TEST(Json, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(tytra::json::parse(deep).ok());
  std::string fine(40, '[');
  fine += std::string(40, ']');
  EXPECT_TRUE(tytra::json::parse(fine).ok());
}

TEST(Json, EscapeRoundTrips) {
  const std::string raw = "line\nquote\"back\\slash\ttab\x01ctl";
  std::string doc = "\"";
  tytra::json::append_escaped(doc, raw);
  doc += '"';
  EXPECT_EQ(parse_ok(doc).str(), raw);
}

// append_number against the reference it replaced, an ostream at
// precision 17, and back through the parser bit for bit.
TEST(Json, NumberWriterMatchesOstreamAndRoundTrips) {
  std::ostringstream ref;
  ref.precision(17);
  std::string got;
  std::size_t checked = 0;
  const auto check = [&](double v) {
    got.clear();
    tytra::json::append_number(got, v);
    if (!std::isfinite(v)) {
      ASSERT_EQ(got, "null");
      return;
    }
    ref.str("");
    ref << v;
    ASSERT_EQ(got, ref.str()) << std::hexfloat << v;
    auto parsed = tytra::json::parse(got);
    ASSERT_TRUE(parsed.ok()) << got << ": " << parsed.error_message();
    const double back = parsed.value().number();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << got;
    ++checked;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v :
       {0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::nextafter(DBL_MIN, 0.0), 0.1, 1.0 / 3.0, 0.5, 100.0, kInf, -kInf,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()}) {
    check(v);
  }
  for (int e = 0; e <= 53; ++e) {
    const double p = std::ldexp(1.0, e);
    check(p);
    check(p - 1);
    check(-p);
  }
  for (double p = 1e15; p <= 1e22; p *= 10) {
    check(p);
    check(p + 1);
    check(-p);
  }

  tytra::SplitMix64 rng(0x4E554D42);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    switch (i % 4) {
      case 0:  // any bit pattern, NaN and inf included
        check(std::bit_cast<double>(bits));
        break;
      case 1:  // subnormals
        check(std::bit_cast<double>(bits & 0x800FFFFFFFFFFFFFULL));
        break;
      case 2:  // integers up to 2^53
        check(static_cast<double>(bits >> 11));
        break;
      default:  // short decimals across magnitudes
        check(static_cast<double>(bits % 100000) *
              std::pow(10.0, static_cast<int>((bits >> 40) % 40) - 20));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(checked, 900000u);

  // A number no double holds is rejected, not saturated.
  for (const char* text : {"1e999", "-1e999", "1e-999"}) {
    EXPECT_FALSE(tytra::json::parse(text).ok()) << text;
  }
}

// The parser must consume everything the engine's own renderers emit —
// the daemon streams format_*_json output inside its frames.
TEST(Json, ParsesTheEngineRenderings) {
  tytra::dse::Session session;
  session.add_device(*tytra::target::preset("stratix-v-gsd8"));
  auto job = tytra::kernels::Registry::instance().make_job("sor", 6);
  ASSERT_TRUE(job.ok());
  const auto result = session.explore(std::move(job).take());
  const Value sweep = parse_ok(tytra::dse::format_sweep_json(result));
  ASSERT_TRUE(sweep.is_object());
  EXPECT_EQ(sweep.get_u32("variants").value_or(0), result.entries.size());
  ASSERT_NE(sweep.find("entries"), nullptr);
  EXPECT_EQ(sweep.find("entries")->elements().size(), result.entries.size());

  tytra::dse::Campaign campaign;
  auto j2 = tytra::kernels::Registry::instance().make_job("hotspot", 6);
  ASSERT_TRUE(j2.ok());
  campaign.jobs.push_back(std::move(j2).take());
  const auto cr = session.run(campaign);
  const Value c = parse_ok(tytra::dse::format_campaign_json(cr));
  ASSERT_NE(c.find("campaign"), nullptr);
  EXPECT_EQ(c.find("campaign")->find("jobs")->elements().size(), 1u);

  const Value reg =
      parse_ok(tytra::kernels::format_registry_json(
          tytra::kernels::Registry::instance()));
  ASSERT_NE(reg.find("workloads"), nullptr);
  EXPECT_GE(reg.find("workloads")->elements().size(), 3u);
}

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

struct SocketPair {
  int a{-1};
  int b{-1};
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(Framing, RoundTripsPayloads) {
  SocketPair s;
  std::string err;
  for (const std::string& payload :
       {std::string(""), std::string("{\"cmd\": \"ping\"}"),
        std::string(100000, 'x')}) {
    ASSERT_TRUE(tytra::framing::write_frame(s.a, payload, err)) << err;
    std::string got;
    ASSERT_EQ(tytra::framing::read_frame(s.b, got, err),
              tytra::framing::ReadStatus::Frame)
        << err;
    EXPECT_EQ(got, payload);
  }
}

TEST(Framing, CleanEofBeforeAnyByte) {
  SocketPair s;
  ::close(s.a);
  s.a = -1;
  std::string payload, err;
  EXPECT_EQ(tytra::framing::read_frame(s.b, payload, err),
            tytra::framing::ReadStatus::Eof);
}

TEST(Framing, TruncatedFrameIsAnError) {
  SocketPair s;
  // A length prefix promising 100 bytes, then only 3 and a hang-up.
  const unsigned char prefix[4] = {100, 0, 0, 0};
  ASSERT_EQ(::send(s.a, prefix, 4, 0), 4);
  ASSERT_EQ(::send(s.a, "abc", 3, 0), 3);
  ::close(s.a);
  s.a = -1;
  std::string payload, err;
  EXPECT_EQ(tytra::framing::read_frame(s.b, payload, err),
            tytra::framing::ReadStatus::Error);
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(Framing, OversizedPrefixIsRejectedWithoutAllocating) {
  SocketPair s;
  const unsigned char prefix[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // 4 GiB claim
  ASSERT_EQ(::send(s.a, prefix, 4, 0), 4);
  std::string payload, err;
  EXPECT_EQ(tytra::framing::read_frame(s.b, payload, err),
            tytra::framing::ReadStatus::Error);
  EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
}

TEST(Framing, WriteRejectsOversizedPayloadUpFront) {
  SocketPair s;
  std::string err;
  // Claim the size without materializing 64 MiB: a string wrapper would
  // defeat the point; the guard compares sizes before any write.
  std::string big;
  big.resize(tytra::framing::kMaxFrameBytes + 1);
  EXPECT_FALSE(tytra::framing::write_frame(s.a, big, err));
  EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
}

TEST(Framing, ReadFailpointInjectsFault) {
  tytra::failpoint::Scoped fp("frame.read", 100);
  SocketPair s;
  std::string payload, err;
  EXPECT_EQ(tytra::framing::read_frame(s.b, payload, err),
            tytra::framing::ReadStatus::Error);
  EXPECT_EQ(err, "injected fault at failpoint 'frame.read'");
}

TEST(Framing, WriteFailpointInjectsFault) {
  tytra::failpoint::Scoped fp("frame.write", 100);
  SocketPair s;
  std::string err;
  EXPECT_FALSE(tytra::framing::write_frame(s.a, "x", err));
  EXPECT_EQ(err, "injected fault at failpoint 'frame.write'");
}

TEST(Framing, ConcurrentWriterAndReaderAgree) {
  SocketPair s;
  constexpr int kFrames = 200;
  std::thread writer([&] {
    std::string err;
    for (int i = 0; i < kFrames; ++i) {
      const std::string payload(static_cast<std::size_t>(i * 37 % 4096), 'p');
      ASSERT_TRUE(tytra::framing::write_frame(s.a, payload, err)) << err;
    }
  });
  std::string payload, err;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(tytra::framing::read_frame(s.b, payload, err),
              tytra::framing::ReadStatus::Frame)
        << err;
    EXPECT_EQ(payload.size(), static_cast<std::size_t>(i * 37 % 4096));
  }
  writer.join();
}

}  // namespace
