#include "query/table.h"

#include <stdexcept>
#include <thread>

namespace pim::query {

int table_schema::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  throw std::invalid_argument("table_schema: unknown column " + name);
}

pim_table::pim_table(table_schema schema, std::size_t rows,
                     std::vector<service::client_api*> sessions,
                     int scratch_vectors)
    : schema_(std::move(schema)),
      rows_(rows),
      scratch_(scratch_vectors),
      sessions_(std::move(sessions)) {
  if (sessions_.empty()) {
    throw std::invalid_argument("pim_table: at least one partition session");
  }
  if (rows_ < sessions_.size()) {
    throw std::invalid_argument("pim_table: fewer rows than partitions");
  }
  if (schema_.columns.empty()) {
    throw std::invalid_argument("pim_table: empty schema");
  }
  if (scratch_ < 0) {
    throw std::invalid_argument("pim_table: negative scratch pool");
  }
  std::size_t slices = 0;
  for (const column_def& col : schema_.columns) {
    if (col.bit_width <= 0 || col.bit_width > 32) {
      throw std::invalid_argument("pim_table: column width outside [1, 32]");
    }
    column_offset_.push_back(slices);
    slices += static_cast<std::size_t>(col.bit_width);
  }
  group_vectors_ = slices + static_cast<std::size_t>(scratch_);

  // Even row split, remainder spread over the leading partitions.
  const std::size_t parts = sessions_.size();
  const std::size_t chunk = rows_ / parts;
  const std::size_t extra = rows_ % parts;
  base_.push_back(0);
  for (std::size_t p = 0; p < parts; ++p) {
    base_.push_back(base_.back() + chunk + (p < extra ? 1 : 0));
  }

  // One allocation per partition: a single co-located group holding
  // every column's slices plus the scratch pool, so any plan op over
  // this partition satisfies Ambit's operand co-location requirement.
  vectors_.resize(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    const bits size = partition_rows(static_cast<int>(p));
    vectors_[p] = sessions_[p]->allocate(size,
                                         static_cast<int>(group_vectors_));
  }
}

std::size_t pim_table::partition_base(int p) const {
  return base_.at(static_cast<std::size_t>(p));
}

std::size_t pim_table::partition_rows(int p) const {
  return base_.at(static_cast<std::size_t>(p) + 1) -
         base_.at(static_cast<std::size_t>(p));
}

service::client_api& pim_table::session(int p) {
  return *sessions_.at(static_cast<std::size_t>(p));
}

const dram::bulk_vector& pim_table::vector_at(int p, std::size_t flat) const {
  return vectors_.at(static_cast<std::size_t>(p)).at(flat);
}

const dram::bulk_vector& pim_table::slice(int p, int column, int bit) const {
  const auto c = static_cast<std::size_t>(column);
  if (c >= schema_.columns.size() || bit < 0 ||
      bit >= schema_.columns[c].bit_width) {
    throw std::invalid_argument("pim_table: slice out of range");
  }
  return vector_at(p, column_offset_[c] + static_cast<std::size_t>(bit));
}

const dram::bulk_vector& pim_table::scratch(int p, int i) const {
  if (i < 0 || i >= scratch_) {
    throw std::invalid_argument("pim_table: scratch index out of range");
  }
  return vector_at(p, group_vectors_ - static_cast<std::size_t>(scratch_) +
                          static_cast<std::size_t>(i));
}

void pim_table::load(const std::string& name, const db::column& data) {
  load(schema_.index_of(name), data);
}

void pim_table::load(int column, const db::column& data) {
  const auto c = static_cast<std::size_t>(column);
  if (c >= schema_.columns.size()) {
    throw std::invalid_argument("pim_table: unknown column index");
  }
  if (data.bit_width != schema_.columns[c].bit_width) {
    throw std::invalid_argument("pim_table: column width mismatch");
  }
  if (data.rows() != rows_) {
    throw std::invalid_argument("pim_table: row count mismatch");
  }
  // Checked here, not by each partition's bitslice_storage, so a bad
  // value leaves every partition as it was.
  std::uint32_t seen = 0;
  for (const std::uint32_t v : data.values) seen |= v;
  if ((std::uint64_t{seen} >> data.bit_width) != 0) {
    throw std::invalid_argument("pim_table: value wider than its column");
  }

  // One loader thread per partition: each drives only its own session
  // (the client_api single-thread contract), and the shards apply the
  // writes concurrently.
  std::vector<std::thread> loaders;
  std::vector<std::exception_ptr> errors(sessions_.size());
  for (int p = 0; p < partitions(); ++p) {
    loaders.emplace_back([this, p, column, &data, &errors] {
      try {
        const std::size_t base = partition_base(p);
        const std::size_t count = partition_rows(p);
        db::column chunk;
        chunk.bit_width = data.bit_width;
        chunk.values.assign(data.values.begin() +
                                static_cast<std::ptrdiff_t>(base),
                            data.values.begin() +
                                static_cast<std::ptrdiff_t>(base + count));
        const db::bitslice_storage slices(chunk);
        for (int b = 0; b < slices.width(); ++b) {
          sessions_[static_cast<std::size_t>(p)]->write(slice(p, column, b),
                                                        slices.slice(b));
        }
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace pim::query
