#include "net/protocol.h"

#include <sys/socket.h>

#include <bit>
#include <concepts>

namespace pim::net {
namespace {

// One encode/decode pair per field type: writer appends a field to the
// frame (explicit little-endian, alignment-free), reader parses it back
// bounds-checked against the frame. Each is also the functor a
// message's fields() and runtime::for_each_wire_field call per field.

/// The encoder's per-byte primitive: an integer or bool as sizeof(T)
/// little-endian bytes. It takes `out` as a parameter so the loop keeps
/// it in a register: a byte store may alias any object, so a `writer`
/// member would be reloaded after every byte.
template <std::integral T>
void put(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i)));
  }
}

struct writer {
  std::vector<std::uint8_t>& out;

  template <std::integral T>
  void operator()(T v) {
    put(out, v);
  }

  template <typename E>
    requires std::is_enum_v<E>
  void operator()(E v) {
    (*this)(static_cast<std::uint8_t>(v));
  }

  void operator()(double v) { (*this)(std::bit_cast<std::uint64_t>(v)); }

  void operator()(const std::string& s) {
    (*this)(static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  }

  void operator()(const bitvector& v) {
    (*this)(std::uint64_t{v.size()});
    for (std::size_t w = 0; w < v.word_count(); ++w) (*this)(v.get_word(w));
  }

  void operator()(const dram::address& a) {
    (*this)(a.channel);
    (*this)(a.rank);
    (*this)(a.bank);
    (*this)(a.row);
    (*this)(a.column);
  }

  void operator()(const dram::bulk_vector& v) {
    (*this)(v.size);
    (*this)(v.rows);
  }

  void operator()(const service::shared_vector& sv) {
    (*this)(sv.owner);
    (*this)(sv.v);
  }

  /// A presence byte, then the value if present.
  template <typename T>
  void operator()(const std::optional<T>& v) {
    (*this)(static_cast<std::uint8_t>(v.has_value()));
    if (v) (*this)(*v);
  }

  /// A u32 count, then the elements.
  template <typename T>
  void operator()(const std::vector<T>& v) {
    (*this)(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) (*this)(e);
  }

  void operator()(const runtime::task_report& r) {
    runtime::for_each_wire_field(r, *this);
  }

  /// Counters, gauges, then each histogram as its 65 bucket counts (the
  /// count is their sum).
  void operator()(const obs::metrics_snapshot& snap) {
    (*this)(static_cast<std::uint32_t>(snap.counters.size()));
    for (const auto& [name, value] : snap.counters) {
      (*this)(name);
      (*this)(value);
    }
    (*this)(static_cast<std::uint32_t>(snap.gauges.size()));
    for (const auto& [name, value] : snap.gauges) {
      (*this)(name);
      (*this)(value);
    }
    (*this)(static_cast<std::uint32_t>(snap.histograms.size()));
    for (const auto& [name, h] : snap.histograms) {
      (*this)(name);
      for (std::size_t b = 0; b < geo_histogram::bucket_count; ++b) {
        (*this)(h.bucket(b));
      }
    }
  }
};

struct reader {
  const std::uint8_t* p = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > size) throw protocol_error("truncated frame body");
  }

  template <typename T>
  T read() {
    T v{};
    (*this)(v);
    return v;
  }

  template <std::integral T>
  void operator()(T& v) {
    need(sizeof(T));
    std::uint64_t raw = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      raw |= static_cast<std::uint64_t>(p[pos++]) << (8 * i);
    }
    v = static_cast<T>(raw);
  }

  /// One byte naming an enumerator no later than wire_enum<E>::last.
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(E& v) {
    const auto raw = read<std::uint8_t>();
    if (raw > static_cast<std::uint8_t>(wire_enum<E>::last)) {
      throw protocol_error(std::string("unknown ") + wire_enum<E>::what);
    }
    v = static_cast<E>(raw);
  }

  void operator()(double& v) {
    v = std::bit_cast<double>(read<std::uint64_t>());
  }

  void operator()(std::string& s) {
    const auto n = read<std::uint32_t>();
    need(n);
    s.assign(reinterpret_cast<const char*>(p + pos), n);
    pos += n;
  }

  void operator()(bitvector& v) {
    const auto size_bits = read<std::uint64_t>();
    // Bound the declared size by the bytes left before allocating it.
    const std::uint64_t words = size_bits / 64 + (size_bits % 64 != 0);
    if (words > (size - pos) / 8) {
      throw protocol_error("bitvector larger than its frame");
    }
    v = bitvector(static_cast<std::size_t>(size_bits));
    for (std::size_t w = 0; w < v.word_count(); ++w) {
      v.set_word(w, read<std::uint64_t>());
    }
  }

  void operator()(dram::address& a) {
    (*this)(a.channel);
    (*this)(a.rank);
    (*this)(a.bank);
    (*this)(a.row);
    (*this)(a.column);
  }

  void operator()(dram::bulk_vector& v) {
    (*this)(v.size);
    const auto rows = read<std::uint32_t>();
    // 20 bytes per row: a count that cannot fit the remaining frame is
    // malformed, not a reason to reserve gigabytes.
    if (static_cast<std::size_t>(rows) * 20 > size - pos) {
      throw protocol_error("row count exceeds frame");
    }
    v.rows.resize(rows);
    for (dram::address& a : v.rows) (*this)(a);
  }

  void operator()(service::shared_vector& sv) {
    (*this)(sv.owner);
    (*this)(sv.v);
  }

  template <typename T>
  void operator()(std::optional<T>& v) {
    if (read<std::uint8_t>() != 0) (*this)(v.emplace());
  }

  /// Elements are read one at a time, never reserved: a count the frame
  /// cannot hold fails as a truncated body when its bytes run out.
  template <typename T>
  void operator()(std::vector<T>& v) {
    for (auto n = read<std::uint32_t>(); n > 0; --n) (*this)(v.emplace_back());
  }

  void operator()(runtime::task_report& r) {
    runtime::for_each_wire_field(r, *this);
    if (!r.telescopes()) {
      throw protocol_error("task report stamps do not telescope");
    }
  }

  void operator()(obs::metrics_snapshot& snap) {
    for (auto n = read<std::uint32_t>(); n > 0; --n) {
      auto name = read<std::string>();
      (*this)(snap.counters[std::move(name)]);
    }
    for (auto n = read<std::uint32_t>(); n > 0; --n) {
      auto name = read<std::string>();
      (*this)(snap.gauges[std::move(name)]);
    }
    for (auto n = read<std::uint32_t>(); n > 0; --n) {
      geo_histogram& h = snap.histograms[read<std::string>()];
      // Bucket b holds the samples of bit width b, so recording its
      // lowest sample with the bucket's count rebuilds it exactly.
      for (std::size_t b = 0; b < geo_histogram::bucket_count; ++b) {
        const auto count = read<std::uint64_t>();
        const std::uint64_t lowest = b == 0 ? 0 : std::uint64_t{1} << (b - 1);
        if (count != 0) h.record(lowest, count);
      }
    }
  }
};

}  // namespace

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
  writer body{payload};
  body(wire_version);
  body(id);
  std::visit(
      [&body](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        body(M::code);
        M::fields(m, body);
      },
      msg);
  if (payload.size() > max_frame_bytes) {
    throw protocol_error("frame exceeds max_frame_bytes");
  }

  std::vector<std::uint8_t> out;
  out.reserve(8 + payload.size());
  writer head{out};
  head(wire_magic);
  head(static_cast<std::uint32_t>(payload.size()));
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
  if (head.read<std::uint32_t>() != wire_magic) {
    throw protocol_error("bad magic");
  }
  const auto length = head.read<std::uint32_t>();
  if (length > max_frame_bytes) throw protocol_error("oversized frame");
  // Every payload carries at least version + id + opcode.
  if (length < 10) throw protocol_error("runt frame");
  // Those decide whether the frame is refused before its body is
  // buffered or read.
  if (avail < 8 + 10) return std::nullopt;

  reader in{buf_.data() + pos_ + 8, length, 0};
  if (const auto version = in.read<std::uint8_t>(); version != wire_version) {
    throw protocol_error("unsupported version " + std::to_string(version) +
                         " (this build speaks " +
                         std::to_string(wire_version) + ")");
  }
  net_frame frame;
  frame.id = in.read<std::uint64_t>();
  last_id_ = frame.id;
  const auto code = in.read<std::uint8_t>();
  bool known = false;
  for_each_message([&](auto type) {
    using M = typename decltype(type)::type;
    if (M::code != code) return;
    known = true;
    if (is_request<M> != (side_ == wire_side::server)) {
      throw protocol_error(
          std::string(is_request<M> ? "request " : "response ") + M::name +
          " sent to the " +
          (side_ == wire_side::server ? "server" : "client"));
    }
  });
  if (!known) throw protocol_error("unknown opcode");
  if (avail < 8 + static_cast<std::size_t>(length)) return std::nullopt;
  pos_ += 8 + length;

  for_each_message([&](auto type) {
    using M = typename decltype(type)::type;
    if (M::code == code) M::fields(frame.msg.emplace<M>(), in);
  });
  if (in.pos != in.size) throw protocol_error("trailing bytes in frame");
  return frame;
}

}  // namespace pim::net
