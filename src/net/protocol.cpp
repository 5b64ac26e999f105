#include "net/protocol.h"

#include <sys/socket.h>

#include <bit>
#include <cstring>
#include <iterator>

namespace pim::net {
namespace {

// --- primitive encoding (explicit little-endian, alignment-free) -----------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_bitvector(std::vector<std::uint8_t>& out, const bitvector& v) {
  put_u64(out, v.size());
  for (std::size_t w = 0; w < v.word_count(); ++w) put_u64(out, v.get_word(w));
}

void put_address(std::vector<std::uint8_t>& out, const dram::address& a) {
  put_i32(out, a.channel);
  put_i32(out, a.rank);
  put_i32(out, a.bank);
  put_i32(out, a.row);
  put_i32(out, a.column);
}

void put_vector(std::vector<std::uint8_t>& out, const dram::bulk_vector& v) {
  put_u64(out, v.size);
  put_u32(out, static_cast<std::uint32_t>(v.rows.size()));
  for (const dram::address& a : v.rows) put_address(out, a);
}

void put_shared(std::vector<std::uint8_t>& out,
                const service::shared_vector& sv) {
  put_u64(out, sv.owner);
  put_vector(out, sv.v);
}

/// Counters, gauges, then each histogram as its 65 bucket counts (the
/// count is their sum).
void put_snapshot(std::vector<std::uint8_t>& out,
                  const obs::metrics_snapshot& snap) {
  put_u32(out, static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    put_string(out, name);
    put_u64(out, value);
  }
  put_u32(out, static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& [name, value] : snap.gauges) {
    put_string(out, name);
    put_i64(out, value);
  }
  put_u32(out, static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& [name, h] : snap.histograms) {
    put_string(out, name);
    for (std::size_t b = 0; b < geo_histogram::bucket_count; ++b) {
      put_u64(out, h.bucket(b));
    }
  }
}

void put_report(std::vector<std::uint8_t>& out, const runtime::task_report& r) {
  runtime::for_each_wire_field(r, [&out](const auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
      put_u8(out, static_cast<std::uint8_t>(field));
    } else if constexpr (sizeof(T) == 4) {
      put_u32(out, static_cast<std::uint32_t>(field));
    } else {
      put_u64(out, static_cast<std::uint64_t>(field));
    }
  });
}

// --- primitive decoding (bounds-checked against the frame) -----------------

struct reader {
  const std::uint8_t* p = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > size) throw protocol_error("truncated frame body");
  }
  std::uint8_t u8() {
    need(1);
    return p[pos++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[pos++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(p + pos), n);
    pos += n;
    return s;
  }

  bitvector bv() {
    const std::uint64_t size_bits = u64();
    // Bound the declared size by the bytes left before allocating it.
    const std::uint64_t words = size_bits / 64 + (size_bits % 64 != 0);
    if (words > (size - pos) / 8) {
      throw protocol_error("bitvector larger than its frame");
    }
    bitvector v(static_cast<std::size_t>(size_bits));
    for (std::size_t w = 0; w < v.word_count(); ++w) v.set_word(w, u64());
    return v;
  }

  dram::address addr() {
    dram::address a;
    a.channel = i32();
    a.rank = i32();
    a.bank = i32();
    a.row = i32();
    a.column = i32();
    return a;
  }

  dram::bulk_vector vec() {
    dram::bulk_vector v;
    v.size = u64();
    const std::uint32_t rows = u32();
    // 20 bytes per row: a count that cannot fit the remaining frame is
    // malformed, not a reason to reserve gigabytes.
    if (static_cast<std::size_t>(rows) * 20 > size - pos) {
      throw protocol_error("row count exceeds frame");
    }
    v.rows.reserve(rows);
    for (std::uint32_t i = 0; i < rows; ++i) v.rows.push_back(addr());
    return v;
  }

  service::shared_vector shared() {
    service::shared_vector sv;
    sv.owner = u64();
    sv.v = vec();
    return sv;
  }

  /// One byte naming an enumerator no later than `last`.
  template <typename E>
  E enum_u8(E last, const char* what) {
    const std::uint8_t raw = u8();
    if (raw > static_cast<std::uint8_t>(last)) {
      throw protocol_error(std::string("unknown ") + what);
    }
    return static_cast<E>(raw);
  }

  runtime::task_report report() {
    runtime::task_report r;
    runtime::for_each_wire_field(r, [this](auto& field) {
      using T = std::remove_reference_t<decltype(field)>;
      if constexpr (std::is_same_v<T, runtime::task_kind>) {
        field = enum_u8(runtime::task_kind::host_kernel, "task kind");
      } else if constexpr (std::is_same_v<T, runtime::backend_kind>) {
        field = enum_u8(runtime::backend_kind::host, "backend");
      } else if constexpr (std::is_same_v<T, bool>) {
        field = u8() != 0;
      } else if constexpr (sizeof(T) == 4) {
        field = static_cast<T>(u32());
      } else {
        field = static_cast<T>(u64());
      }
    });
    if (!r.telescopes()) {
      throw protocol_error("task report stamps do not telescope");
    }
    return r;
  }

  dram::bulk_op op() { return enum_u8(dram::bulk_op::xnor_op, "bulk op"); }

  obs::metrics_snapshot snapshot() {
    obs::metrics_snapshot snap;
    for (std::uint32_t n = u32(); n > 0; --n) {
      std::string name = str();
      snap.counters[std::move(name)] = u64();
    }
    for (std::uint32_t n = u32(); n > 0; --n) {
      std::string name = str();
      snap.gauges[std::move(name)] = i64();
    }
    for (std::uint32_t n = u32(); n > 0; --n) {
      geo_histogram& h = snap.histograms[str()];
      // Bucket b holds the samples of bit width b, so recording its
      // lowest sample with the bucket's count rebuilds it exactly.
      for (std::size_t b = 0; b < geo_histogram::bucket_count; ++b) {
        const std::uint64_t count = u64();
        const std::uint64_t lowest = b == 0 ? 0 : std::uint64_t{1} << (b - 1);
        if (count != 0) h.record(lowest, count);
      }
    }
    return snap;
  }
};

void encode_body(std::vector<std::uint8_t>& out, const net_message& msg) {
  std::visit(
      [&out](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, open_session_req>) {
          put_f64(out, m.weight);
        } else if constexpr (std::is_same_v<T, close_session_req>) {
          put_u64(out, m.session);
        } else if constexpr (std::is_same_v<T, allocate_req>) {
          put_u64(out, m.session);
          put_u64(out, m.size);
          put_i32(out, m.count);
        } else if constexpr (std::is_same_v<T, write_req>) {
          put_u64(out, m.session);
          put_vector(out, m.v);
          put_bitvector(out, m.data);
        } else if constexpr (std::is_same_v<T, read_req>) {
          put_u64(out, m.session);
          put_vector(out, m.v);
        } else if constexpr (std::is_same_v<T, submit_req>) {
          put_u64(out, m.session);
          put_u8(out, static_cast<std::uint8_t>(m.op));
          put_vector(out, m.a);
          put_u8(out, m.b.has_value() ? 1 : 0);
          if (m.b) put_vector(out, *m.b);
          put_vector(out, m.d);
        } else if constexpr (std::is_same_v<T, submit_shared_req>) {
          put_u64(out, m.issuer);
          put_u8(out, static_cast<std::uint8_t>(m.op));
          put_shared(out, m.a);
          put_u8(out, m.b.has_value() ? 1 : 0);
          if (m.b) put_shared(out, *m.b);
          put_shared(out, m.d);
        } else if constexpr (std::is_same_v<T, wait_req> ||
                             std::is_same_v<T, get_metrics_req> ||
                             std::is_same_v<T, closed_resp> ||
                             std::is_same_v<T, waited_resp>) {
          // Empty body.
        } else if constexpr (std::is_same_v<T, trace_ctl_req>) {
          put_u8(out, m.action);
          put_string(out, m.path);
        } else if constexpr (std::is_same_v<T, snapshot_req>) {
          put_i64(out, m.slow_threshold_ns);
        } else if constexpr (std::is_same_v<T, snapshot_resp>) {
          put_snapshot(out, m.snap);
        } else if constexpr (std::is_same_v<T, metrics_resp>) {
          put_string(out, m.json);
        } else if constexpr (std::is_same_v<T, trace_ack_resp>) {
          put_u64(out, m.events);
          put_string(out, m.json);
        } else if constexpr (std::is_same_v<T, opened_resp>) {
          put_u64(out, m.session);
          put_i32(out, m.shard);
        } else if constexpr (std::is_same_v<T, vectors_resp>) {
          put_u32(out, static_cast<std::uint32_t>(m.vectors.size()));
          for (const dram::bulk_vector& v : m.vectors) put_vector(out, v);
        } else if constexpr (std::is_same_v<T, data_resp>) {
          put_bitvector(out, m.data);
        } else if constexpr (std::is_same_v<T, done_resp>) {
          put_report(out, m.report);
        } else if constexpr (std::is_same_v<T, error_resp>) {
          put_string(out, m.message);
        }
      },
      msg);
}

net_message decode_body(opcode op, reader& in) {
  switch (op) {
    case opcode::open_session: {
      open_session_req m;
      m.weight = in.f64();
      return m;
    }
    case opcode::close_session: {
      close_session_req m;
      m.session = in.u64();
      return m;
    }
    case opcode::allocate: {
      allocate_req m;
      m.session = in.u64();
      m.size = in.u64();
      m.count = in.i32();
      return m;
    }
    case opcode::write: {
      write_req m;
      m.session = in.u64();
      m.v = in.vec();
      m.data = in.bv();
      return m;
    }
    case opcode::read: {
      read_req m;
      m.session = in.u64();
      m.v = in.vec();
      return m;
    }
    case opcode::submit: {
      submit_req m;
      m.session = in.u64();
      m.op = in.op();
      m.a = in.vec();
      if (in.u8() != 0) m.b = in.vec();
      m.d = in.vec();
      return m;
    }
    case opcode::submit_shared: {
      submit_shared_req m;
      m.issuer = in.u64();
      m.op = in.op();
      m.a = in.shared();
      if (in.u8() != 0) m.b = in.shared();
      m.d = in.shared();
      return m;
    }
    case opcode::wait:
      return wait_req{};
    case opcode::get_metrics:
      return get_metrics_req{};
    case opcode::trace_ctl: {
      trace_ctl_req m;
      m.action = in.u8();
      if (m.action > trace_ctl_req::clear) {
        throw protocol_error("unknown trace_ctl action");
      }
      m.path = in.str();
      return m;
    }
    case opcode::snapshot: {
      snapshot_req m;
      m.slow_threshold_ns = in.i64();
      return m;
    }
    case opcode::snapshot_report: {
      snapshot_resp m;
      m.snap = in.snapshot();
      return m;
    }
    case opcode::metrics_report: {
      metrics_resp m;
      m.json = in.str();
      return m;
    }
    case opcode::trace_ack: {
      trace_ack_resp m;
      m.events = in.u64();
      m.json = in.str();
      return m;
    }
    case opcode::opened: {
      opened_resp m;
      m.session = in.u64();
      m.shard = in.i32();
      return m;
    }
    case opcode::closed:
      return closed_resp{};
    case opcode::vectors: {
      vectors_resp m;
      const std::uint32_t n = in.u32();
      for (std::uint32_t i = 0; i < n; ++i) m.vectors.push_back(in.vec());
      return m;
    }
    case opcode::data: {
      data_resp m;
      m.data = in.bv();
      return m;
    }
    case opcode::done: {
      done_resp m;
      m.report = in.report();
      return m;
    }
    case opcode::waited:
      return waited_resp{};
    case opcode::error: {
      error_resp m;
      m.message = in.str();
      return m;
    }
  }
  throw protocol_error("unknown opcode");
}

}  // namespace

opcode opcode_of(const net_message& msg) {
  // The variant's alternative order is the opcode order within each of
  // the two ranges (requests from 1, responses from 64).
  static constexpr opcode table[] = {
      opcode::open_session,  opcode::close_session, opcode::allocate,
      opcode::write,         opcode::read,          opcode::submit,
      opcode::submit_shared, opcode::wait,          opcode::get_metrics,
      opcode::trace_ctl,     opcode::snapshot,      opcode::opened,
      opcode::closed,        opcode::vectors,       opcode::data,
      opcode::done,          opcode::waited,        opcode::error,
      opcode::metrics_report, opcode::trace_ack,    opcode::snapshot_report};
  static_assert(std::size(table) == std::variant_size_v<net_message>);
  return table[msg.index()];
}

bool carries_flow(const net_message& msg) {
  return std::holds_alternative<write_req>(msg) ||
         std::holds_alternative<read_req>(msg) ||
         std::holds_alternative<submit_req>(msg) ||
         std::holds_alternative<submit_shared_req>(msg);
}

bool send_all(int fd, const std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::uint8_t> encode_frame(std::uint64_t id,
                                       const net_message& msg) {
  std::vector<std::uint8_t> payload;
  put_u8(payload, wire_version);
  put_u64(payload, id);
  put_u8(payload, static_cast<std::uint8_t>(opcode_of(msg)));
  encode_body(payload, msg);
  if (payload.size() > max_frame_bytes) {
    throw protocol_error("frame exceeds max_frame_bytes");
  }

  std::vector<std::uint8_t> out;
  out.reserve(8 + payload.size());
  put_u32(out, wire_magic);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void frame_splitter::feed(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: drop consumed prefix before appending so the
  // buffer stays bounded by one frame plus one socket read.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

std::optional<net_frame> frame_splitter::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 8) return std::nullopt;

  reader head{buf_.data() + pos_, 8, 0};
  const std::uint32_t magic = head.u32();
  if (magic != wire_magic) throw protocol_error("bad magic");
  const std::uint32_t length = head.u32();
  if (length > max_frame_bytes) throw protocol_error("oversized frame");
  // Every payload carries at least version + id + opcode.
  if (length < 10) throw protocol_error("runt frame");
  if (avail < 8 + static_cast<std::size_t>(length)) return std::nullopt;

  reader in{buf_.data() + pos_ + 8, length, 0};
  pos_ += 8 + length;

  if (const std::uint8_t version = in.u8(); version != wire_version) {
    throw protocol_error("unsupported version " + std::to_string(version) +
                         " (this build speaks " +
                         std::to_string(wire_version) + ")");
  }
  net_frame frame;
  frame.id = in.u64();
  last_id_ = frame.id;
  const std::uint8_t raw_op = in.u8();
  frame.msg = decode_body(static_cast<opcode>(raw_op), in);
  if (in.pos != in.size) throw protocol_error("trailing bytes in frame");
  return frame;
}

}  // namespace pim::net
