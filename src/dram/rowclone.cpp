#include "dram/rowclone.h"

#include <stdexcept>

namespace pim::dram {

rowclone_engine::rowclone_engine(memory_system& mem)
    : mem_(mem), layout_(mem.org()) {}

void rowclone_engine::validate_copy(const address& src, const address& dst,
                                    bool same_subarray) const {
  if (same_subarray) {
    if (src.channel != dst.channel || src.rank != dst.rank ||
        src.bank != dst.bank) {
      throw std::invalid_argument("RowClone FPM: rows must share a bank");
    }
    if (layout_.subarray_of(src.row) != layout_.subarray_of(dst.row)) {
      throw std::invalid_argument("RowClone FPM: rows must share a subarray");
    }
    if (src.row == dst.row) {
      throw std::invalid_argument("RowClone FPM: src == dst");
    }
  } else {
    if (src.channel != dst.channel) {
      throw std::invalid_argument("RowClone PSM: rows must share a channel");
    }
    if (src.rank == dst.rank && src.bank == dst.bank) {
      throw std::invalid_argument(
          "RowClone PSM: rows must be in different banks (use FPM)");
    }
  }
}

void rowclone_engine::validate_memset(const address& dst) const {
  if (layout_.is_reserved(dst.row)) {
    throw std::invalid_argument("RowClone memset: reserved destination row");
  }
}

void rowclone_engine::copy_fpm(const address& src, const address& dst,
                               std::function<void(picoseconds)> done) {
  validate_copy(src, dst, /*same_subarray=*/true);

  bulk_sequence seq;
  command act{command_kind::activate, src, /*bulk=*/true};
  command copy{command_kind::copy_activate, dst, /*bulk=*/true,
               /*conservative=*/true};
  command pre{command_kind::precharge, dst, /*bulk=*/true};
  seq.commands = {act, copy, pre};
  seq.on_complete = [this, src, dst, done = std::move(done)](picoseconds t) {
    mem_.row(dst) = mem_.row_or_zero(src);
    if (done) done(t);
  };
  mem_.enqueue_bulk(src.channel, std::move(seq));
}

void rowclone_engine::copy_psm(const address& src, const address& dst,
                               std::function<void(picoseconds)> done) {
  validate_copy(src, dst, /*same_subarray=*/false);

  bulk_sequence seq;
  seq.commands.reserve(2 * static_cast<std::size_t>(mem_.org().columns) + 4);
  seq.commands.push_back({command_kind::activate, src, /*bulk=*/true});
  command dst_act{command_kind::activate, dst, /*bulk=*/true};
  seq.commands.push_back(dst_act);
  for (int col = 0; col < mem_.org().columns; ++col) {
    address s = src;
    s.column = col;
    address d = dst;
    d.column = col;
    seq.commands.push_back({command_kind::read, s, /*bulk=*/true});
    seq.commands.push_back({command_kind::write, d, /*bulk=*/true});
  }
  command pre_src{command_kind::precharge, src, /*bulk=*/true};
  command pre_dst{command_kind::precharge, dst, /*bulk=*/true};
  seq.commands.push_back(pre_src);
  seq.commands.push_back(pre_dst);
  seq.on_complete = [this, src, dst, done = std::move(done)](picoseconds t) {
    mem_.row(dst) = mem_.row_or_zero(src);
    if (done) done(t);
  };
  mem_.enqueue_bulk(src.channel, std::move(seq));
}

void rowclone_engine::memset_row(const address& dst, bool ones,
                                 std::function<void(picoseconds)> done) {
  validate_memset(dst);
  const int subarray = layout_.subarray_of(dst.row);
  address constant = dst;
  constant.row = ones ? layout_.c1(subarray) : layout_.c0(subarray);

  bulk_sequence seq;
  command act{command_kind::activate, constant, /*bulk=*/true};
  command copy{command_kind::copy_activate, dst, /*bulk=*/true,
               /*conservative=*/true};
  command pre{command_kind::precharge, dst, /*bulk=*/true};
  seq.commands = {act, copy, pre};
  seq.on_complete = [this, dst, ones, done = std::move(done)](picoseconds t) {
    mem_.row(dst).fill(ones);
    if (done) done(t);
  };
  mem_.enqueue_bulk(dst.channel, std::move(seq));
}

}  // namespace pim::dram
