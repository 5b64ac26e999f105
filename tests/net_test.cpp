// Tests for the wire protocol and the socket server/client pair.
//
// Framing is tested on plain byte buffers (no socket): round trips
// across every message type, the done frame's golden bytes, then every
// malformed-input class — bad magic, oversized length, wrong version,
// truncated body, unknown opcode or report enum, report stamps that do
// not telescope, trailing bytes — and the golden bytes of one frame of
// every message type with seeded mutants of them. The server tests
// drive real loopback sockets: garbage input must produce one error
// frame and a closed connection (never a crash, and never take down
// other connections), and a synthetic fleet over remote_client must
// reproduce the in-process digests bit for bit with pipelined,
// out-of-order responses.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/server.h"
#include "obs/profile.h"
#include "service/synthetic.h"

namespace pim::net {
namespace {

// ---------------------------------------------------------------------------
// Framing round trips
// ---------------------------------------------------------------------------

dram::bulk_vector sample_vector(int base) {
  dram::bulk_vector v;
  v.size = 8192 * 2;
  for (int i = 0; i < 2; ++i) {
    dram::address a;
    a.channel = base % 2;
    a.rank = 0;
    a.bank = (base + i) % 8;
    a.row = 100 + base + i;
    v.rows.push_back(a);
  }
  return v;
}

bitvector sample_bits(std::size_t size, std::uint64_t seed) {
  rng gen(seed);
  return bitvector::random(size, gen);
}

/// The side `msg` travels to: requests to the server, responses to the
/// client.
wire_side receiver(const net_message& msg) {
  return std::visit(
      [](const auto& m) {
        return is_request<std::decay_t<decltype(m)>> ? wire_side::server
                                                     : wire_side::client;
      },
      msg);
}

net_frame roundtrip(std::uint64_t id, const net_message& msg) {
  const std::vector<std::uint8_t> wire = encode_frame(id, msg);
  frame_splitter splitter(receiver(msg));
  splitter.feed(wire.data(), wire.size());
  std::optional<net_frame> frame = splitter.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(splitter.buffered(), 0u);
  EXPECT_EQ(frame->id, id);
  EXPECT_EQ(frame->msg.index(), msg.index());
  return std::move(*frame);
}

TEST(protocol, round_trips_every_request_type) {
  {
    const auto f = roundtrip(1, open_session_req{2.5});
    EXPECT_DOUBLE_EQ(std::get<open_session_req>(f.msg).weight, 2.5);
  }
  {
    const auto f = roundtrip(2, close_session_req{77});
    EXPECT_EQ(std::get<close_session_req>(f.msg).session, 77u);
  }
  {
    const auto f = roundtrip(3, allocate_req{9, 8192, 3});
    const auto& m = std::get<allocate_req>(f.msg);
    EXPECT_EQ(m.session, 9u);
    EXPECT_EQ(m.size, 8192u);
    EXPECT_EQ(m.count, 3);
  }
  {
    write_req req;
    req.session = 4;
    req.v = sample_vector(1);
    req.data = sample_bits(req.v.size, 99);
    const auto f = roundtrip(4, req);
    const auto& m = std::get<write_req>(f.msg);
    EXPECT_EQ(m.v.rows, req.v.rows);
    EXPECT_EQ(m.v.size, req.v.size);
    EXPECT_EQ(m.data, req.data);
  }
  {
    read_req req;
    req.session = 5;
    req.v = sample_vector(2);
    const auto f = roundtrip(5, req);
    EXPECT_EQ(std::get<read_req>(f.msg).v.rows, req.v.rows);
  }
  {
    submit_req req;
    req.session = 6;
    req.op = dram::bulk_op::xor_op;
    req.a = sample_vector(1);
    req.b = sample_vector(2);
    req.d = sample_vector(3);
    const auto f = roundtrip(6, req);
    const auto& m = std::get<submit_req>(f.msg);
    EXPECT_EQ(m.op, dram::bulk_op::xor_op);
    ASSERT_TRUE(m.b.has_value());
    EXPECT_EQ(m.b->rows, req.b->rows);
  }
  {
    submit_req unary;
    unary.session = 6;
    unary.op = dram::bulk_op::not_op;
    unary.a = sample_vector(1);
    unary.d = sample_vector(3);
    const auto f = roundtrip(7, unary);
    EXPECT_FALSE(std::get<submit_req>(f.msg).b.has_value());
  }
  {
    submit_shared_req req;
    req.issuer = 8;
    req.op = dram::bulk_op::and_op;
    req.a = {11, sample_vector(1)};
    req.b = service::shared_vector{12, sample_vector(2)};
    req.d = {11, sample_vector(3)};
    const auto f = roundtrip(8, req);
    const auto& m = std::get<submit_shared_req>(f.msg);
    EXPECT_EQ(m.a.owner, 11u);
    ASSERT_TRUE(m.b.has_value());
    EXPECT_EQ(m.b->owner, 12u);
    EXPECT_EQ(m.d.v.rows, req.d.v.rows);
  }
  roundtrip(9, wait_req{});
}

TEST(protocol, round_trips_every_response_type) {
  {
    const auto f = roundtrip(20, opened_resp{1234, 3});
    const auto& m = std::get<opened_resp>(f.msg);
    EXPECT_EQ(m.session, 1234u);
    EXPECT_EQ(m.shard, 3);
  }
  roundtrip(21, closed_resp{});
  {
    vectors_resp resp;
    resp.vectors = {sample_vector(1), sample_vector(4)};
    const auto f = roundtrip(22, resp);
    const auto& m = std::get<vectors_resp>(f.msg);
    ASSERT_EQ(m.vectors.size(), 2u);
    EXPECT_EQ(m.vectors[1].rows, resp.vectors[1].rows);
  }
  {
    data_resp resp;
    resp.data = sample_bits(1000, 7);
    const auto f = roundtrip(23, resp);
    EXPECT_EQ(std::get<data_resp>(f.msg).data, resp.data);
  }
  {
    done_resp resp;
    resp.report.id = 55;
    resp.report.stream = 2;
    resp.report.kind = runtime::task_kind::bulk_bool;
    resp.report.where = runtime::backend_kind::ambit;
    resp.report.submit_ps = 10;
    resp.report.release_ps = 20;
    resp.report.start_ps = 20;
    resp.report.complete_ps = 300;
    resp.report.output_bytes = 4096;
    const auto f = roundtrip(24, resp);
    const auto& m = std::get<done_resp>(f.msg);
    EXPECT_EQ(m.report.id, 55u);
    EXPECT_EQ(m.report.where, runtime::backend_kind::ambit);
    EXPECT_EQ(m.report.complete_ps, 300);
    EXPECT_EQ(m.report.output_bytes, 4096u);
  }
  roundtrip(25, waited_resp{});
  {
    const auto f = roundtrip(27, error_resp{"boom"});
    EXPECT_EQ(std::get<error_resp>(f.msg).message, "boom");
  }
}

TEST(protocol, done_frame_matches_golden_bytes) {
  // Every report field holds a distinct value, so a reordered, resized
  // or dropped field changes the bytes.
  done_resp resp;
  runtime::task_report& r = resp.report;
  r.id = 0x0807060504030201;
  r.stream = 3;
  r.kind = runtime::task_kind::host_kernel;
  r.where = runtime::backend_kind::ndp_logic;
  r.admit_ps = 0x1000;
  r.submit_ps = 0x2000;
  r.release_ps = 0x3000;
  r.start_ps = 0x4000;
  r.complete_ps = 0x5000;
  r.output_bytes = 0x600;
  r.channel = 9;
  r.bank = 10;
  r.energy_fj = 0x0a0b0c0d;
  r.insitu_bytes = 0x100;
  r.offchip_bytes = 0x200;
  r.wire_bytes = 0x300;
  r.blocked_on = 0x11;
  r.blocked_row = 0x0000000100000002;
  r.wire_hop = true;
  const std::vector<std::uint8_t> golden = {
      0x31, 0x4d, 0x49, 0x50,                          // magic
      0x81, 0x00, 0x00, 0x00,                          // length 129
      0x04,                                            // version
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request id
      0x44,                                            // opcode done
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // id
      0x03, 0x00, 0x00, 0x00,                          // stream
      0x03,                                            // kind
      0x02,                                            // where
      0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // submit_ps
      0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // start_ps
      0x00, 0x50, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // complete_ps
      0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // output_bytes
      0x09, 0x00, 0x00, 0x00,                          // channel
      0x0a, 0x00, 0x00, 0x00,                          // bank
      0x0d, 0x0c, 0x0b, 0x0a, 0x00, 0x00, 0x00, 0x00,  // energy_fj
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // insitu_bytes
      0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // offchip_bytes
      0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // wire_bytes
      0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // admit_ps
      0x00, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // release_ps
      0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // blocked_on
      0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // blocked_row
      0x01,                                            // wire_hop
  };
  EXPECT_EQ(encode_frame(42, resp), golden);
}

TEST(protocol, accepts_the_whole_supported_version_range) {
  // Only wire_version parses; the version byte follows the header.
  const auto good = encode_frame(1, wait_req{});
  for (const std::uint8_t v : {std::uint8_t{3}, std::uint8_t{4},
                               std::uint8_t{5}}) {
    std::vector<std::uint8_t> wire = good;
    wire[8] = v;
    frame_splitter splitter(wire_side::server);
    splitter.feed(wire.data(), wire.size());
    if (v == wire_version) {
      EXPECT_TRUE(splitter.next().has_value());
    } else {
      EXPECT_THROW(splitter.next(), protocol_error) << int(v);
    }
  }
}

TEST(protocol, reassembles_frames_split_across_feeds) {
  write_req req;
  req.session = 4;
  req.v = sample_vector(1);
  req.data = sample_bits(req.v.size, 5);
  const std::vector<std::uint8_t> wire = encode_frame(99, req);

  frame_splitter splitter(wire_side::server);
  // One byte at a time: next() must return nullopt until the last byte.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    splitter.feed(&wire[i], 1);
    EXPECT_FALSE(splitter.next().has_value());
  }
  splitter.feed(&wire[wire.size() - 1], 1);
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->id, 99u);
  EXPECT_EQ(std::get<write_req>(frame->msg).data, req.data);
}

TEST(protocol, pops_pipelined_frames_in_order) {
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const auto f = encode_frame(id, wait_req{});
    wire.insert(wire.end(), f.begin(), f.end());
  }
  frame_splitter splitter(wire_side::server);
  splitter.feed(wire.data(), wire.size());
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const auto frame = splitter.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->id, id);
  }
  EXPECT_FALSE(splitter.next().has_value());
}

// ---------------------------------------------------------------------------
// Malformed input
// ---------------------------------------------------------------------------

TEST(protocol, rejects_bad_magic) {
  std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
  wire[0] ^= 0xff;
  frame_splitter splitter(wire_side::server);
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
}

TEST(protocol, rejects_oversized_length) {
  std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
  const std::uint32_t huge = max_frame_bytes + 1;
  std::memcpy(wire.data() + 4, &huge, 4);  // little-endian host in tests
  frame_splitter splitter(wire_side::server);
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
}

TEST(protocol, rejects_runt_frame) {
  std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
  const std::uint32_t tiny = 4;  // below version+id+opcode
  std::memcpy(wire.data() + 4, &tiny, 4);
  frame_splitter splitter(wire_side::server);
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
}

TEST(protocol, rejects_truncated_body) {
  // A write frame whose declared length stops mid-bitvector: the body
  // decoder must throw, not read out of bounds.
  write_req req;
  req.session = 1;
  req.v = sample_vector(1);
  req.data = sample_bits(req.v.size, 3);
  std::vector<std::uint8_t> wire = encode_frame(7, req);
  const std::uint32_t declared = static_cast<std::uint32_t>(wire.size() - 8);
  const std::uint32_t shorter = declared - 9;  // drop one word + 1 byte
  std::memcpy(wire.data() + 4, &shorter, 4);
  wire.resize(8 + shorter);
  frame_splitter splitter(wire_side::server);
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
  EXPECT_EQ(splitter.last_id(), 7u);  // failed after the id was read
}

TEST(protocol, rejects_bitvector_larger_than_its_frame_before_allocating) {
  // A small write frame whose bitvector declares 2^29 bits (64 MiB):
  // the decoder must refuse it from the bytes left, not allocate first.
  write_req req;
  req.session = 1;
  req.v.size = 64;
  req.v.rows.push_back({});
  req.data = sample_bits(64, 4);
  std::vector<std::uint8_t> wire = encode_frame(9, req);
  ASSERT_LT(wire.size(), 100u);
  const std::uint64_t declared = std::uint64_t{1} << 29;
  const std::size_t size_at = wire.size() - 8 * req.data.word_count() - 8;
  std::memcpy(wire.data() + size_at, &declared, 8);  // little-endian host
  frame_splitter splitter(wire_side::server);
  splitter.feed(wire.data(), wire.size());
  try {
    splitter.next();
    FAIL() << "oversized bitvector decoded";
  } catch (const protocol_error& e) {
    EXPECT_STREQ(e.what(), "protocol error: bitvector larger than its frame");
  }
  EXPECT_EQ(splitter.last_id(), 9u);
}

TEST(protocol, rejects_unknown_opcode) {
  // Retired: 9 and 70 (stats / stats_report), 10 and 72 (hello /
  // hello_ack), 13 and 75 (watch_stats / stats_push).
  for (const std::uint8_t op : {0xee, 9, 70, 10, 72, 13, 75}) {
    std::vector<std::uint8_t> wire = encode_frame(3, wait_req{});
    wire[8 + 1 + 8] = op;  // opcode byte after version + id
    frame_splitter splitter(wire_side::server);
    splitter.feed(wire.data(), wire.size());
    EXPECT_THROW(splitter.next(), protocol_error) << int{op};
    EXPECT_EQ(splitter.last_id(), 3u);
  }
}

/// A done frame carrying `r`. The report starts at `report_at`, after
/// the header, version, id and opcode.
std::vector<std::uint8_t> done_frame(const runtime::task_report& r) {
  return encode_frame(5, done_resp{r});
}
constexpr std::size_t report_at = 8 + 1 + 8 + 1;

TEST(protocol, rejects_unknown_report_enums) {
  // kind and where are the bytes after the report's id and stream.
  for (const std::size_t field : {report_at + 12, report_at + 13}) {
    std::vector<std::uint8_t> wire = done_frame({});
    wire[field] = 9;
    frame_splitter splitter(wire_side::client);
    splitter.feed(wire.data(), wire.size());
    EXPECT_THROW(splitter.next(), protocol_error) << field;
  }
}

TEST(protocol, rejects_report_stamps_that_do_not_telescope) {
  runtime::task_report r;
  r.admit_ps = 10;
  r.submit_ps = 20;
  r.release_ps = 30;
  r.start_ps = 40;
  r.complete_ps = 50;
  {
    const auto wire = done_frame(r);
    frame_splitter splitter(wire_side::client);
    splitter.feed(wire.data(), wire.size());
    EXPECT_TRUE(splitter.next().has_value());
  }
  r.release_ps = 45;  // released after it started
  const auto wire = done_frame(r);
  frame_splitter splitter(wire_side::client);
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
  EXPECT_EQ(splitter.last_id(), 5u);
}

TEST(protocol, rejects_trailing_bytes_in_frame) {
  std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
  // Grow the payload by one byte the body decoder will not consume.
  wire.push_back(0xab);
  const std::uint32_t longer = static_cast<std::uint32_t>(wire.size() - 8);
  std::memcpy(wire.data() + 4, &longer, 4);
  frame_splitter splitter(wire_side::server);
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
}

// ---------------------------------------------------------------------------
// Every message's bytes, pinned
// ---------------------------------------------------------------------------

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : bytes) {
    hex += digits[b >> 4];
    hex += digits[b & 15];
  }
  return hex;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

/// A two-row vector with a distinct non-zero value in every field.
dram::bulk_vector tagged_vector(int tag) {
  dram::bulk_vector v;
  v.size = 100 + static_cast<bits>(tag);
  for (int r = 0; r < 2; ++r) {
    const int base = 10 * tag + 5 * r;
    v.rows.push_back({base + 1, base + 2, base + 3, base + 4, base + 5});
  }
  return v;
}

/// One frame of every message type, both arms of each optional, with a
/// non-zero value in every field (a unary submit's op is not_op, 0).
struct sample_frame {
  const char* name;
  net_message msg;
  const char* hex;  // encode_frame(sample_id, msg), recorded at version 4
};
constexpr std::uint64_t sample_id = 0x0102030405060708;

std::vector<sample_frame> sample_frames() {
  runtime::task_report r;
  r.id = 0x1112131415161718;
  r.stream = 3;
  r.kind = runtime::task_kind::row_memset;
  r.where = runtime::backend_kind::rowclone;
  r.admit_ps = 100;
  r.submit_ps = 200;
  r.release_ps = 300;
  r.start_ps = 400;
  r.complete_ps = 500;
  r.output_bytes = 4096;
  r.channel = 1;
  r.bank = 5;
  r.energy_fj = 123456;
  r.insitu_bytes = 64;
  r.offchip_bytes = 128;
  r.wire_bytes = 256;
  r.blocked_on = 7;
  r.blocked_row = 0x0000000100000002;
  r.wire_hop = true;

  obs::metrics_snapshot snap;
  snap.counters["requests"] = 42;
  snap.gauges["depth"] = -3;
  geo_histogram h;
  h.record(0, 2);
  h.record(1000, 3);
  h.record(std::uint64_t{1} << 20);
  snap.histograms["latency_ns"] = h;

  const service::shared_vector s1{21, tagged_vector(1)};
  const service::shared_vector s2{22, tagged_vector(2)};
  const service::shared_vector s3{23, tagged_vector(3)};
  // Bit counts that leave the last word partial.
  const bitvector written = sample_bits(100, 11);
  const bitvector read_back = sample_bits(70, 12);

  return {
      {"open_session", open_session_req{2.5},
       "314d495012000000040807060504030201010000000000000440"},
      {"close_session", close_session_req{77},
       "314d495012000000040807060504030201024d00000000000000"},
      {"allocate", allocate_req{9, 8192, 3},
       "314d49501e000000040807060504030201030900000000000000002000000000"
       "000003000000"},
      {"write", write_req{4, tagged_vector(1), written},
       "314d49505e000000040807060504030201040400000000000000650000000000"
       "0000020000000b0000000c0000000d0000000e0000000f000000100000001100"
       "00001200000013000000140000006400000000000000dfa73969c27f283981a0"
       "555c0f000000"},
      {"read", read_req{5, tagged_vector(2)},
       "314d495046000000040807060504030201050500000000000000660000000000"
       "00000200000015000000160000001700000018000000190000001a0000001b00"
       "00001c0000001d0000001e000000"},
      {"submit binary",
       submit_req{6, dram::bulk_op::xor_op, tagged_vector(1),
                  tagged_vector(2), tagged_vector(3)},
       "314d4950b0000000040807060504030201060600000000000000056500000000"
       "000000020000000b0000000c0000000d0000000e0000000f0000001000000011"
       "0000001200000013000000140000000166000000000000000200000015000000"
       "160000001700000018000000190000001a0000001b0000001c0000001d000000"
       "1e0000006700000000000000020000001f000000200000002100000022000000"
       "230000002400000025000000260000002700000028000000"},
      {"submit unary",
       submit_req{6, dram::bulk_op::not_op, tagged_vector(1), std::nullopt,
                  tagged_vector(3)},
       "314d49507c000000040807060504030201060600000000000000006500000000"
       "000000020000000b0000000c0000000d0000000e0000000f0000001000000011"
       "000000120000001300000014000000006700000000000000020000001f000000"
       "2000000021000000220000002300000024000000250000002600000027000000"
       "28000000"},
      {"submit_shared binary",
       submit_shared_req{8, dram::bulk_op::nor_op, s1, s2, s3},
       "314d4950c8000000040807060504030201070800000000000000041500000000"
       "0000006500000000000000020000000b0000000c0000000d0000000e0000000f"
       "0000001000000011000000120000001300000014000000011600000000000000"
       "6600000000000000020000001500000016000000170000001800000019000000"
       "1a0000001b0000001c0000001d0000001e000000170000000000000067000000"
       "00000000020000001f0000002000000021000000220000002300000024000000"
       "25000000260000002700000028000000"},
      {"submit_shared unary",
       submit_shared_req{8, dram::bulk_op::not_op, s1, std::nullopt, s3},
       "314d49508c000000040807060504030201070800000000000000001500000000"
       "0000006500000000000000020000000b0000000c0000000d0000000e0000000f"
       "0000001000000011000000120000001300000014000000001700000000000000"
       "6700000000000000020000001f00000020000000210000002200000023000000"
       "2400000025000000260000002700000028000000"},
      {"wait", wait_req{},
       "314d49500a00000004080706050403020108"},
      {"get_metrics", get_metrics_req{},
       "314d49500a0000000408070605040302010b"},
      {"trace_ctl", trace_ctl_req{trace_ctl_req::clear, "t.json"},
       "314d4950150000000408070605040302010c0306000000742e6a736f6e"},
      {"snapshot", snapshot_req{5'000'000},
       "314d4950120000000408070605040302010e404b4c0000000000"},
      {"opened", opened_resp{1234, 3},
       "314d49501600000004080706050403020140d20400000000000003000000"},
      {"closed", closed_resp{},
       "314d49500a00000004080706050403020141"},
      {"vectors", vectors_resp{{tagged_vector(4), tagged_vector(5)}},
       "314d495076000000040807060504030201420200000068000000000000000200"
       "0000290000002a0000002b0000002c0000002d0000002e0000002f0000003000"
       "0000310000003200000069000000000000000200000033000000340000003500"
       "0000360000003700000038000000390000003a0000003b0000003c000000"},
      {"data", data_resp{read_back},
       "314d495022000000040807060504030201434600000000000000a1a87152db64"
       "f44e0500000000000000"},
      {"done", done_resp{r},
       "314d495081000000040807060504030201441817161514131211030000000201"
       "c8000000000000009001000000000000f4010000000000000010000000000000"
       "010000000500000040e201000000000040000000000000008000000000000000"
       "000100000000000064000000000000002c010000000000000700000000000000"
       "020000000100000001"},
      {"waited", waited_resp{},
       "314d49500a00000004080706050403020145"},
      {"error", error_resp{"boom"},
       "314d4950120000000408070605040302014704000000626f6f6d"},
      {"metrics_report", metrics_resp{"{\"m\":1}"},
       "314d49501500000004080706050403020149070000007b226d223a317d"},
      {"trace_ack", trace_ack_resp{12, "[]"},
       "314d4950180000000408070605040302014a0c00000000000000020000005b5d"},
      {"snapshot_report", snapshot_resp{snap},
       "314d4950510200000408070605040302014c0100000008000000726571756573"
       "74732a0000000000000001000000050000006465707468fdffffffffffffff01"
       "0000000a0000006c6174656e63795f6e73020000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0003000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000001000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000"},
  };
}

TEST(protocol, every_message_frame_matches_golden_bytes) {
  const std::vector<sample_frame> frames = sample_frames();
  std::set<std::size_t> covered;
  for (const sample_frame& s : frames) covered.insert(s.msg.index());
  EXPECT_EQ(covered.size(), std::variant_size_v<net_message>);
  for (const sample_frame& s : frames) {
    EXPECT_EQ(to_hex(encode_frame(sample_id, s.msg)), s.hex) << s.name;
    frame_splitter splitter(receiver(s.msg));
    const std::vector<std::uint8_t> wire = from_hex(s.hex);
    splitter.feed(wire.data(), wire.size());
    const std::optional<net_frame> f = splitter.next();
    ASSERT_TRUE(f.has_value()) << s.name;
    EXPECT_EQ(f->id, sample_id);
    EXPECT_EQ(f->msg.index(), s.msg.index()) << s.name;
    EXPECT_EQ(encode_frame(sample_id, f->msg), wire) << s.name;
  }
}

TEST(protocol, mutated_frames_are_refused_or_reencode_stably) {
  // Overwrites 1-3 bytes from the opcode on (so a message with an
  // empty body is mutated too) of every sample frame, 20,000 times per
  // frame. Each mutant must throw protocol_error or decode to a
  // message whose encoding decodes and encodes to the same bytes; any
  // other exception fails the test. Each mutant goes to the side its
  // sample travels to, which refuses a message of the other direction.
  // The counts were recorded at the version 4 codec: a decoder that
  // accepts or refuses one more mutant changes them.
  constexpr std::size_t opcode_at = 8 + 1 + 8;
  auto decode = [](const std::vector<std::uint8_t>& wire, wire_side side) {
    frame_splitter splitter(side);
    splitter.feed(wire.data(), wire.size());
    std::optional<net_frame> f = splitter.next();
    if (!f) throw std::logic_error("whole frame not decoded");
    return std::move(*f);
  };
  rng gen(23);
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (const sample_frame& s : sample_frames()) {
    const std::vector<std::uint8_t> golden = from_hex(s.hex);
    for (int trial = 0; trial < 20'000; ++trial) {
      std::vector<std::uint8_t> wire = golden;
      for (std::uint64_t k = 1 + gen.next_below(3); k > 0; --k) {
        wire[opcode_at + gen.next_below(wire.size() - opcode_at)] =
            static_cast<std::uint8_t>(gen.next_u64());
      }
      net_frame f;
      try {
        f = decode(wire, receiver(s.msg));
      } catch (const protocol_error&) {
        ++refused;
        continue;
      } catch (const std::exception& e) {
        FAIL() << s.name << " trial " << trial << ": " << e.what();
      }
      ++accepted;
      const std::vector<std::uint8_t> once = encode_frame(f.id, f.msg);
      ASSERT_EQ(encode_frame(f.id, decode(once, receiver(s.msg)).msg), once)
          << s.name << " trial " << trial;
    }
  }
  EXPECT_EQ(accepted, 264'213u);
  EXPECT_EQ(refused, 195'787u);
}

// ---------------------------------------------------------------------------
// Server over loopback sockets
// ---------------------------------------------------------------------------

server_config small_server_config(int shards = 2) {
  server_config cfg;
  cfg.service.shards = shards;
  cfg.service.system.org.channels = 2;
  cfg.service.system.org.ranks = 1;
  cfg.service.system.org.banks = 4;
  cfg.service.system.org.subarrays = 4;
  cfg.service.system.org.rows = 512;
  cfg.service.system.org.columns = 128;
  return cfg;
}

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// A loopback listener on an ephemeral port, for tests that play the
/// server by hand.
struct raw_listener {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  std::uint16_t port = 0;

  raw_listener() {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd, 1), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
  }
  ~raw_listener() { ::close(fd); }
  raw_listener(const raw_listener&) = delete;
  raw_listener& operator=(const raw_listener&) = delete;
};

/// Reads until `splitter` holds one whole frame; nullopt at EOF.
std::optional<net_frame> read_frame(int fd, frame_splitter& splitter) {
  std::uint8_t buf[512];
  for (;;) {
    if (auto f = splitter.next()) return f;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    splitter.feed(buf, static_cast<std::size_t>(n));
  }
}

/// Reads until EOF; returns everything received.
std::vector<std::uint8_t> drain_socket(int fd) {
  std::vector<std::uint8_t> all;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    all.insert(all.end(), buf, buf + n);
  }
  return all;
}

TEST(pim_server, answers_garbage_with_error_frame_and_closes) {
  pim_server server(small_server_config());
  server.start();

  const int fd = connect_raw(server.port());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);

  // The server must answer with a well-formed error frame, then close.
  const std::vector<std::uint8_t> reply = drain_socket(fd);
  ::close(fd);
  frame_splitter splitter(wire_side::client);
  splitter.feed(reply.data(), reply.size());
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(std::holds_alternative<error_resp>(frame->msg));

  // And the server must still serve new connections afterwards.
  remote_client client("127.0.0.1", server.port());
  const auto v = client.allocate(8192, 3);
  EXPECT_EQ(v.size(), 3u);
  server.stop();
}

TEST(pim_server, survives_truncated_and_oversized_frames) {
  pim_server server(small_server_config());
  server.start();

  {
    // Truncated body under a valid header.
    write_req req;
    req.session = 0;
    req.v = sample_vector(1);
    req.data = sample_bits(req.v.size, 3);
    std::vector<std::uint8_t> wire = encode_frame(7, req);
    const std::uint32_t shorter =
        static_cast<std::uint32_t>(wire.size() - 8 - 16);
    std::memcpy(wire.data() + 4, &shorter, 4);
    wire.resize(8 + shorter);
    const int fd = connect_raw(server.port());
    ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
    const auto reply = drain_socket(fd);
    ::close(fd);
    EXPECT_FALSE(reply.empty());  // error frame, not a crash
  }
  {
    // Oversized declared length.
    std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
    const std::uint32_t huge = max_frame_bytes + 1;
    std::memcpy(wire.data() + 4, &huge, 4);
    const int fd = connect_raw(server.port());
    ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
    const auto reply = drain_socket(fd);
    ::close(fd);
    EXPECT_FALSE(reply.empty());
  }
  {
    // Unknown opcode.
    std::vector<std::uint8_t> wire = encode_frame(5, wait_req{});
    wire[8 + 1 + 8] = 0xee;
    const int fd = connect_raw(server.port());
    ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
    const auto reply = drain_socket(fd);
    ::close(fd);
    frame_splitter splitter(wire_side::client);
    splitter.feed(reply.data(), reply.size());
    const auto frame = splitter.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->id, 5u);  // id echoed even for an unknown opcode
    EXPECT_TRUE(std::holds_alternative<error_resp>(frame->msg));
  }

  // Healthy traffic still works.
  remote_client client("127.0.0.1", server.port());
  EXPECT_EQ(client.allocate(8192, 3).size(), 3u);
  server.stop();
}

TEST(pim_server, rejects_requests_for_foreign_sessions) {
  pim_server server(small_server_config());
  server.start();
  remote_client a("127.0.0.1", server.port());
  const int fd = connect_raw(server.port());

  // A raw connection that never opened session `a.id()` asks to
  // allocate on it: per-request error, connection stays up.
  allocate_req req;
  req.session = a.id();
  req.size = 8192;
  req.count = 1;
  const auto wire = encode_frame(1, req);
  ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
  std::uint8_t buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  ASSERT_GT(n, 0);
  frame_splitter splitter(wire_side::client);
  splitter.feed(buf, static_cast<std::size_t>(n));
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(std::holds_alternative<error_resp>(frame->msg));

  // Same connection, now with its own session: works.
  const auto open_wire = encode_frame(2, open_session_req{});
  ASSERT_GT(::send(fd, open_wire.data(), open_wire.size(), MSG_NOSIGNAL), 0);
  const ssize_t n2 = ::recv(fd, buf, sizeof(buf), 0);
  ASSERT_GT(n2, 0);
  splitter.feed(buf, static_cast<std::size_t>(n2));
  const auto opened = splitter.next();
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(std::holds_alternative<opened_resp>(opened->msg));
  ::close(fd);
  server.stop();
}

TEST(pim_server, rejects_mismatched_major_version_with_error_frame) {
  pim_server server(small_server_config());
  server.start();

  // A peer one version behind opens a session: its first frame's
  // version byte is refused with one error frame naming the version,
  // then the connection closes (drain_socket sees EOF after the frame).
  const int fd = connect_raw(server.port());
  std::vector<std::uint8_t> wire = encode_frame(1, open_session_req{});
  wire[8] = wire_version - 1;  // the version byte follows the header
  ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
  const std::vector<std::uint8_t> reply = drain_socket(fd);
  ::close(fd);
  frame_splitter splitter(wire_side::client);
  splitter.feed(reply.data(), reply.size());
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(std::holds_alternative<error_resp>(frame->msg));
  EXPECT_NE(std::get<error_resp>(frame->msg).message.find(
                "unsupported version " + std::to_string(wire_version - 1)),
            std::string::npos)
      << std::get<error_resp>(frame->msg).message;
  EXPECT_FALSE(splitter.next().has_value());
  EXPECT_EQ(splitter.buffered(), 0u);

  // Other connections are unaffected.
  remote_client client("127.0.0.1", server.port());
  EXPECT_EQ(client.allocate(8192, 1).size(), 1u);
  server.stop();
}

TEST(pim_server, refuses_a_response_from_its_opcode) {
  pim_server server(small_server_config());
  server.start();

  // A vectors frame (a response) whose body stops after its count. The
  // server refuses it from the opcode byte, naming the message and the
  // direction, without reading the body; then it hangs up.
  vectors_resp resp;
  resp.vectors = {sample_vector(1), sample_vector(2)};
  std::vector<std::uint8_t> wire = encode_frame(3, resp);
  constexpr std::size_t count_end = 8 + 1 + 8 + 1 + 4;
  const auto shorter = static_cast<std::uint32_t>(count_end - 8);
  std::memcpy(wire.data() + 4, &shorter, 4);  // little-endian host
  wire.resize(count_end);
  const int fd = connect_raw(server.port());
  ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
  const std::vector<std::uint8_t> reply = drain_socket(fd);
  ::close(fd);
  frame_splitter splitter(wire_side::client);
  splitter.feed(reply.data(), reply.size());
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->id, 3u);
  ASSERT_TRUE(std::holds_alternative<error_resp>(frame->msg));
  EXPECT_EQ(std::get<error_resp>(frame->msg).message,
            "protocol error: response vectors sent to the server");
  EXPECT_FALSE(splitter.next().has_value());
  EXPECT_EQ(splitter.buffered(), 0u);

  // Other connections are unaffected.
  remote_client client("127.0.0.1", server.port());
  EXPECT_EQ(client.allocate(8192, 1).size(), 1u);
  server.stop();
}

TEST(remote_client, matches_in_process_execution_bit_for_bit) {
  // The acceptance check: one synthetic chain over the socket equals
  // the same chain in process. 4 groups × pipelined ops exercise
  // out-of-order completion (independent groups overlap across banks,
  // so response frames do not come back in request order).
  service::synthetic_config chain;
  chain.ops = 24;
  chain.groups = 4;
  chain.vector_bits = 2 * 8192;
  chain.seed = 7;

  pim_server server(small_server_config());
  server.start();
  std::uint64_t remote_digest = 0;
  {
    remote_client client("127.0.0.1", server.port());
    remote_digest = service::run_synthetic_client(client, chain).digest;
    client.barrier();
    const std::string json = client.metrics_json();
    EXPECT_NE(json.find("\"latency\""), std::string::npos);
    client.close_session();
  }
  server.stop();

  service::service_config local;
  local.shards = 1;
  local.system = small_server_config().service.system;
  service::pim_service svc(local);
  svc.start();
  const std::uint64_t local_digest =
      service::run_synthetic_client(svc, chain).digest;
  svc.stop();

  EXPECT_EQ(remote_digest, local_digest);
}

TEST(remote_client, fleet_over_loopback_matches_in_process_fleet) {
  // Whole-fleet equivalence: N concurrent remote clients vs the same
  // population through in-process service_clients, digest lists equal
  // element-wise. Includes cross-session ops (submit_shared over the
  // wire, two-phase planner underneath when owners land on different
  // shards).
  std::vector<service::synthetic_config> population;
  for (int i = 0; i < 6; ++i) {
    service::synthetic_config c;
    c.ops = 16;
    c.groups = 2;
    c.vector_bits = 8192;
    c.seed = 100 + static_cast<std::uint64_t>(i);
    c.cross_fraction = i % 2 == 0 ? 0.25 : 0.0;
    population.push_back(c);
  }

  auto run_remote = [&](std::uint16_t port) {
    const int parties = static_cast<int>(population.size());
    std::vector<service::client_outcome> outcomes(population.size());
    std::vector<std::unique_ptr<remote_client>> clients;
    for (std::size_t i = 0; i < population.size(); ++i) {
      clients.push_back(std::make_unique<remote_client>("127.0.0.1", port));
    }
    // Neighbor exchange mirrors run_synthetic_fleet: client i's cross
    // ops read client (i+1)'s published v[0].
    std::vector<service::shared_vector> published(population.size());
    std::vector<std::vector<dram::bulk_vector>> setup(population.size());
    std::vector<std::thread> threads;
    service::start_gate exchange(parties);
    for (std::size_t i = 0; i < population.size(); ++i) {
      threads.emplace_back([&, i] {
        const service::synthetic_config& config = population[i];
        remote_client& client = *clients[i];
        std::vector<dram::bulk_vector> v;
        for (int g = 0; g < config.groups; ++g) {
          const auto group = client.allocate(
              config.vector_bits, service::synthetic_group_vectors);
          v.insert(v.end(), group.begin(), group.end());
        }
        rng data(config.seed ^ 0xa5a5a5a5a5a5a5a5ull);
        for (const dram::bulk_vector& vec : v) {
          client.write(vec, bitvector::random(vec.size, data));
        }
        published[i] = client.share(v[0]);
        exchange.arrive_and_wait();
        const service::shared_vector* neighbor =
            &published[(i + 1) % published.size()];
        service::client_outcome& outcome = outcomes[i];
        outcome.session = client.id();
        for (const service::synthetic_op& op :
             service::make_synthetic_ops(config)) {
          if (op.cross) {
            client.submit_shared(
                op.op, client.share(v[static_cast<std::size_t>(op.a)]),
                neighbor, client.share(v[static_cast<std::size_t>(op.d)]));
          } else {
            const dram::bulk_vector* b =
                op.b < 0 ? nullptr : &v[static_cast<std::size_t>(op.b)];
            client.submit_bulk(op.op, v[static_cast<std::size_t>(op.a)], b,
                               v[static_cast<std::size_t>(op.d)]);
          }
          ++outcome.tasks;
        }
        outcome.digest = client.digest();
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<std::uint64_t> digests;
    for (const auto& o : outcomes) digests.push_back(o.digest);
    return digests;
  };

  pim_server server(small_server_config());
  server.start();
  const std::vector<std::uint64_t> remote_digests = run_remote(server.port());
  server.stop();

  service::service_config local;
  local.shards = 2;
  local.system = small_server_config().service.system;
  service::pim_service svc(local);
  svc.start();
  const auto outcomes =
      service::run_synthetic_fleet(svc, population, /*burst=*/false);
  svc.stop();
  std::vector<std::uint64_t> local_digests;
  for (const auto& o : outcomes) local_digests.push_back(o.digest);

  EXPECT_EQ(remote_digests, local_digests);
}

TEST(remote_client, wait_barrier_drains_pipeline) {
  pim_server server(small_server_config());
  server.start();
  {
    remote_client client("127.0.0.1", server.port());
    const auto v = client.allocate(8192, 3);
    rng gen(1);
    client.write(v[0], bitvector::random(8192, gen));
    client.write(v[1], bitvector::random(8192, gen));
    for (int i = 0; i < 8; ++i) {
      client.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]);
    }
    client.barrier();  // server answers only once all 8 completed
    // After the barrier every future must already be resolved.
    client.wait_all();
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Observability opcodes: framing, error paths, snapshots
// ---------------------------------------------------------------------------

TEST(protocol, round_trips_observability_messages) {
  roundtrip(30, get_metrics_req{});
  {
    trace_ctl_req req;
    req.action = trace_ctl_req::dump;
    req.path = "/tmp/trace.json";
    const auto f = roundtrip(31, req);
    const auto& m = std::get<trace_ctl_req>(f.msg);
    EXPECT_EQ(m.action, trace_ctl_req::dump);
    EXPECT_EQ(m.path, "/tmp/trace.json");
  }
  {
    const auto f = roundtrip(32, snapshot_req{5'000'000});
    EXPECT_EQ(std::get<snapshot_req>(f.msg).slow_threshold_ns, 5'000'000);
  }
  {
    const auto f = roundtrip(33, metrics_resp{"{\"counters\":{}}"});
    EXPECT_EQ(std::get<metrics_resp>(f.msg).json, "{\"counters\":{}}");
  }
  {
    const auto f = roundtrip(34, trace_ack_resp{12, "[]"});
    EXPECT_EQ(std::get<trace_ack_resp>(f.msg).events, 12u);
  }
  {
    snapshot_resp resp;
    resp.snap.counters["service.requests_completed"] = 42;
    resp.snap.gauges["service.shard.0.queue_depth"] = -1;
    // Samples in the lowest, a middle and the top bucket, with weights.
    geo_histogram h;
    h.record(0, 2);
    h.record(1000, 3);
    h.record(std::uint64_t{1} << 20);
    h.record(~std::uint64_t{0}, 5);
    resp.snap.histograms["service.latency_ns"] = h;
    resp.snap.histograms["idle"] = geo_histogram{};
    const auto f = roundtrip(35, resp);
    const auto& m = std::get<snapshot_resp>(f.msg).snap;
    EXPECT_EQ(m.counters, resp.snap.counters);
    EXPECT_EQ(m.gauges, resp.snap.gauges);
    ASSERT_EQ(m.histograms.size(), 2u);
    EXPECT_TRUE(m.histograms.at("service.latency_ns") == h);
    EXPECT_TRUE(m.histograms.at("idle") == geo_histogram{});
  }
}

TEST(protocol, rejects_truncated_snapshot_body) {
  // A snapshot frame whose declared length stops inside the threshold
  // field: the decoder must throw, not read out of bounds.
  std::vector<std::uint8_t> wire = encode_frame(9, snapshot_req{-1});
  const std::uint32_t declared = static_cast<std::uint32_t>(wire.size() - 8);
  const std::uint32_t shorter = declared - 6;
  std::memcpy(wire.data() + 4, &shorter, 4);
  wire.resize(8 + shorter);
  frame_splitter splitter(wire_side::server);
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
  EXPECT_EQ(splitter.last_id(), 9u);
}

TEST(pim_server, malformed_snapshot_body_answers_error_and_closes) {
  // The same truncated frame over a real socket: the server must
  // answer with an error frame and close this connection, without
  // disturbing a healthy client on another connection.
  pim_server server(small_server_config());
  server.start();

  remote_client healthy("127.0.0.1", server.port());

  std::vector<std::uint8_t> wire = encode_frame(5, snapshot_req{-1});
  const std::uint32_t declared = static_cast<std::uint32_t>(wire.size() - 8);
  const std::uint32_t shorter = declared - 6;
  std::memcpy(wire.data() + 4, &shorter, 4);
  wire.resize(8 + shorter);

  const int fd = connect_raw(server.port());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  const std::vector<std::uint8_t> reply = drain_socket(fd);  // until EOF
  ::close(fd);
  frame_splitter splitter(wire_side::client);
  splitter.feed(reply.data(), reply.size());
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(std::holds_alternative<error_resp>(frame->msg));

  EXPECT_EQ(healthy.allocate(8192, 1).size(), 1u);
  server.stop();
}

TEST(remote_client, trace_dump_while_disabled_returns_empty_trace) {
  // trace_ctl dump with tracing never enabled: a well-formed ack with
  // zero events and a loadable (empty) trace document, not an error.
  pim_server server(small_server_config());
  server.start();
  {
    remote_client client("127.0.0.1", server.port());
    std::string json;
    const std::uint64_t events = client.trace_dump(&json);
    EXPECT_EQ(events, 0u);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
    // Disable without a prior enable is equally benign.
    EXPECT_EQ(client.trace_disable(), 0u);
  }
  server.stop();
}

TEST(pim_server, trace_dump_naming_a_file_is_refused_and_writes_nothing) {
  // A dump that names a path would let any peer create or truncate a
  // file the server's user can write. The server answers it with an
  // error for its id, writes nothing, and keeps serving the connection.
  std::string dir =
      (std::filesystem::temp_directory_path() / "pim_net_test_XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/trace.json";

  pim_server server(small_server_config());
  server.start();
  const int fd = connect_raw(server.port());
  frame_splitter splitter(wire_side::client);
  auto ask = [&](std::uint64_t id, const std::string& named) {
    const auto wire =
        encode_frame(id, trace_ctl_req{trace_ctl_req::dump, named});
    EXPECT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    return read_frame(fd, splitter);
  };
  const auto refused = ask(3, path);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->id, 3u);
  EXPECT_TRUE(std::holds_alternative<error_resp>(refused->msg));
  const auto inline_dump = ask(4, "");
  ASSERT_TRUE(inline_dump.has_value());
  EXPECT_EQ(inline_dump->id, 4u);
  EXPECT_TRUE(std::holds_alternative<trace_ack_resp>(inline_dump->msg));
  ::close(fd);
  server.stop();

  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(remote_client, snapshot_polls_track_traffic) {
  pim_server server(small_server_config());
  server.start();
  {
    remote_client client("127.0.0.1", server.port());
    // A threshold of 0 or more arms the server's slow-request log; -1
    // leaves it alone.
    obs::slow_request_log& slow = obs::slow_request_log::instance();
    const std::int64_t prior = slow.threshold_ns();
    const obs::metrics_snapshot before = client.snapshot(5'000'000);
    EXPECT_EQ(slow.threshold_ns(), 5'000'000);
    EXPECT_EQ(before.gauges.count("service.shard.0.queue_depth"), 1u);

    // The write is counted on the session's shard worker before that
    // worker completes the submit, so the poll after get() sees it.
    const auto vs = client.allocate(8192, 2);
    client.write(vs[0], sample_bits(8192, 83));
    client.submit_bulk(dram::bulk_op::not_op, vs[0], nullptr, vs[1]).get();

    const obs::metrics_snapshot after = client.snapshot();
    EXPECT_EQ(slow.threshold_ns(), 5'000'000);
    slow.set_threshold_ns(prior);
    EXPECT_GT(after.counters.at("service.requests_completed"),
              before.counters.at("service.requests_completed"));
    EXPECT_EQ(after.gauges.count("service.shard.0.queue_depth"), 1u);
    EXPECT_GE(after.histograms.at("service.latency_ns").count(), 1u);
  }
  server.stop();
}

TEST(remote_client, first_frame_opens_the_session) {
  // A stand-in server: the client's first frame is open_session, with
  // no handshake before it, and the opened answer is all the
  // constructor needs. Any other first frame gets a hang-up, which
  // fails the client.
  raw_listener listener;
  std::optional<net_frame> first;
  std::thread peer([&] {
    const int fd = ::accept(listener.fd, nullptr, nullptr);
    frame_splitter splitter(wire_side::server);
    first = read_frame(fd, splitter);
    if (first && std::holds_alternative<open_session_req>(first->msg)) {
      send_all(fd, encode_frame(first->id, opened_resp{77, 1}));
      drain_socket(fd);  // until the client hangs up
    }
    ::close(fd);
  });
  EXPECT_NO_THROW({
    remote_client client("127.0.0.1", listener.port, 2.5);
    EXPECT_EQ(client.id(), 77u);
    EXPECT_EQ(client.shard_index(), 1);
  });
  peer.join();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(std::holds_alternative<open_session_req>(first->msg));
  EXPECT_DOUBLE_EQ(std::get<open_session_req>(first->msg).weight, 2.5);
}

TEST(remote_client, frame_answering_no_request_ends_the_connection) {
  // A stand-in server that sends one frame answering no request (id 0
  // is never a request id), then answers everything else. The client
  // stops reading at that frame, so a later request fails instead of
  // waiting for an answer nobody reads.
  raw_listener listener;
  std::thread peer([&] {
    const int fd = ::accept(listener.fd, nullptr, nullptr);
    frame_splitter splitter(wire_side::server);
    if (auto open = read_frame(fd, splitter)) {
      std::vector<std::uint8_t> out = encode_frame(open->id, opened_resp{});
      const std::vector<std::uint8_t> stray = encode_frame(0, waited_resp{});
      out.insert(out.end(), stray.begin(), stray.end());
      send_all(fd, out);
      while (auto next = read_frame(fd, splitter)) {
        send_all(fd, encode_frame(next->id, waited_resp{}));
      }
    }
    ::close(fd);
  });
  {
    std::optional<remote_client> client;
    EXPECT_NO_THROW(client.emplace("127.0.0.1", listener.port));
    if (client) {
      EXPECT_THROW(client->barrier(), std::runtime_error);
    }
  }
  peer.join();
}

TEST(remote_client, reply_of_the_wrong_kind_fails_the_request) {
  // A stand-in server that answers a submit with waited, a reply only
  // a wait request may get. The submit's future must fail with a
  // protocol error, not complete with an empty report.
  raw_listener listener;
  std::thread peer([&] {
    const int fd = ::accept(listener.fd, nullptr, nullptr);
    frame_splitter splitter(wire_side::server);
    if (auto open = read_frame(fd, splitter)) {
      send_all(fd, encode_frame(open->id, opened_resp{5, 0}));
      if (auto submit = read_frame(fd, splitter)) {
        send_all(fd, encode_frame(submit->id, waited_resp{}));
      }
      drain_socket(fd);  // until the client hangs up
    }
    ::close(fd);
  });
  {
    remote_client client("127.0.0.1", listener.port);
    const dram::bulk_vector v = sample_vector(1);
    service::request_future f =
        client.submit_bulk(dram::bulk_op::not_op, v, nullptr, v);
    try {
      f.get();
      ADD_FAILURE() << "a waited reply completed a submit";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   "service request failed: protocol error: waited answers "
                   "a request expecting done");
    }
  }
  peer.join();
}

TEST(remote_client, server_side_failure_surfaces_as_future_error) {
  pim_server server(small_server_config());
  server.start();
  {
    remote_client client("127.0.0.1", server.port());
    // A submit naming a vector that was never allocated fails on the
    // shard; the error must travel back through the response frame
    // into the future.
    dram::bulk_vector bogus;
    bogus.size = 8192;
    dram::address a;
    a.channel = -1;  // virtual handle with no translation
    a.rank = 0;
    a.row = 4096;
    bogus.rows.push_back(a);
    service::request_future f =
        client.submit_bulk(dram::bulk_op::not_op, bogus, nullptr, bogus);
    EXPECT_THROW(f.get(), std::runtime_error);
    // wait_all surfaces the recorded failure too, then clears it.
    EXPECT_THROW(client.wait_all(), std::runtime_error);
    // The connection is still healthy for correct requests.
    EXPECT_EQ(client.allocate(8192, 2).size(), 2u);
  }
  server.stop();
}

TEST(remote_client, unframeable_read_fails_alone_and_connection_survives) {
  // A read whose response cannot fit in one frame: the server answers
  // that request with an error and keeps serving the connection.
  server_config cfg;
  cfg.service.shards = 1;
  cfg.service.system.org.channels = 1;
  cfg.service.system.org.ranks = 1;
  cfg.service.system.org.banks = 8;
  cfg.service.system.org.subarrays = 8;
  cfg.service.system.org.rows = 8192;
  cfg.service.system.org.columns = 128;
  const bits row_bits = cfg.service.system.org.row_bits();
  pim_server server(cfg);
  server.start();
  {
    remote_client client("127.0.0.1", server.port());
    // One row more than a frame can carry.
    const auto huge =
        client.allocate(8 * static_cast<bits>(max_frame_bytes) + row_bits, 1);
    EXPECT_THROW(client.read(huge[0]), std::runtime_error);

    const auto small = client.allocate(row_bits, 1);
    const bitvector data = sample_bits(row_bits, 71);
    client.write(small[0], data);
    EXPECT_EQ(client.read(small[0]), data);
  }
  server.stop();
}

TEST(remote_client, handle_with_forged_size_is_rejected) {
  // A one-row handle whose size claims far more bits than its row:
  // the shard refuses it instead of building that many bits.
  pim_server server(small_server_config());
  server.start();
  {
    remote_client client("127.0.0.1", server.port());
    const bits row_bits = small_server_config().service.system.org.row_bits();
    const auto v = client.allocate(row_bits, 1);
    dram::bulk_vector forged = v[0];
    forged.size = 8 * static_cast<bits>(max_frame_bytes) + row_bits;
    EXPECT_THROW(client.read(forged), std::runtime_error);
    EXPECT_THROW(client.write(forged, sample_bits(row_bits, 3)),
                 std::runtime_error);

    const bitvector data = sample_bits(row_bits, 73);
    client.write(v[0], data);
    EXPECT_EQ(client.read(v[0]), data);
  }
  server.stop();
}

TEST(remote_client, nan_weight_open_is_refused_and_server_keeps_serving) {
  pim_server server(small_server_config());
  server.start();
  EXPECT_THROW(remote_client("127.0.0.1", server.port(),
                             std::numeric_limits<double>::quiet_NaN()),
               std::runtime_error);
  {
    remote_client client("127.0.0.1", server.port());
    const auto vs = client.allocate(8192, 2);
    const bitvector data = sample_bits(8192, 79);
    client.write(vs[0], data);
    client.submit_bulk(dram::bulk_op::not_op, vs[0], nullptr, vs[1]).get();
    EXPECT_EQ(client.read(vs[1]), ~data);
  }
  server.stop();
  EXPECT_EQ(server.service().stats().sessions, 1);
}

}  // namespace
}  // namespace pim::net
