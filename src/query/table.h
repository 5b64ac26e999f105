// Columnar table catalog of the PIM-native query engine.
//
// A pim_table holds fixed-width integer columns as BitWeaving-V
// bit-sliced vectors *inside the live sharded service*: the row range
// is split into P partitions, each partition owns one client session
// (in-process service_client or net::remote_client — anything behind
// service::client_api), and every partition allocates a single
// co-located vector group holding all of its columns' bit slices plus
// a scratch pool for plan execution. One group per partition is what
// makes plans executable on Ambit: every bulk op a plan emits mixes
// slices and scratch of the same partition, and allocate()'s group
// co-location guarantee (i-th rows of all vectors share a subarray)
// is exactly the triple-row-activation operand requirement.
//
// Sessions route partitions to shards (range or hash routing spreads
// them), so a query that fans out across partitions saturates every
// shard's banks at once — the deployment the paper's E4 scan result
// argues for. The table is transport-independent: the same schema and
// data loaded through remote clients against a pim_server produce
// bit-identical query results, which the tests and bench_query verify.
#ifndef PIM_QUERY_TABLE_H
#define PIM_QUERY_TABLE_H

#include <string>
#include <vector>

#include "db/bitweaving.h"
#include "service/client_api.h"

namespace pim::query {

struct column_def {
  std::string name;
  int bit_width = 8;
};

struct table_schema {
  std::vector<column_def> columns;

  /// Index of the named column; throws std::invalid_argument when
  /// unknown.
  int index_of(const std::string& name) const;
};

class pim_table {
 public:
  /// Binds the table to `sessions` — one open client per row-range
  /// partition; the clients must outlive the table and stay
  /// single-threaded per the client_api contract. Rows are split as
  /// evenly as possible (the first rows % P partitions hold one extra
  /// row), and each partition allocates its slice + scratch group
  /// immediately. Throws when rows < partitions, a column width is
  /// outside [1, 32], or the group exceeds the shard's subarray
  /// capacity.
  pim_table(table_schema schema, std::size_t rows,
            std::vector<service::client_api*> sessions,
            int scratch_vectors = 16);

  /// Loads a column's values: slices every partition's row range, 64
  /// rows per step, and writes the slices through the partition's
  /// session (concurrently, one thread per partition). `data` must
  /// match the schema width and the table's row count, and every value
  /// must fit that width; otherwise it throws std::invalid_argument
  /// before writing any partition.
  void load(const std::string& name, const db::column& data);
  void load(int column, const db::column& data);

  const table_schema& schema() const { return schema_; }
  std::size_t rows() const { return rows_; }
  int partitions() const { return static_cast<int>(sessions_.size()); }
  int scratch_vectors() const { return scratch_; }

  /// First row / row count of partition `p`.
  std::size_t partition_base(int p) const;
  std::size_t partition_rows(int p) const;

  service::client_api& session(int p);

  /// The vector holding bit `bit` of column `column` in partition `p`.
  const dram::bulk_vector& slice(int p, int column, int bit) const;

  /// Scratch vector `i` of partition `p` (plan temporaries).
  const dram::bulk_vector& scratch(int p, int i) const;

 private:
  const dram::bulk_vector& vector_at(int p, std::size_t flat) const;

  table_schema schema_;
  std::size_t rows_ = 0;
  int scratch_ = 0;
  std::vector<service::client_api*> sessions_;
  /// Per column: offset of its first slice in a partition's group
  /// (slices are laid out schema order, scratch after all slices).
  std::vector<std::size_t> column_offset_;
  std::size_t group_vectors_ = 0;
  /// Per partition: the group's vector handles, allocation order.
  std::vector<std::vector<dram::bulk_vector>> vectors_;
  std::vector<std::size_t> base_;  // partition row offsets, size P + 1
};

}  // namespace pim::query

#endif  // PIM_QUERY_TABLE_H
