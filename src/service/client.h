// service_client: the session handle application code holds.
//
// Open a client against a running pim_service and use it like a remote
// pim_system: allocate bulk vectors, move data, submit bulk ops, wait
// on futures. Every call is routed by the service to the session's
// current shard — the session (and all of its vectors) may be migrated
// between shards at any time and the client's vector handles stay
// valid, because handles are virtual and translated by the owning
// shard. allocate/write/read block; submit_* returns a request_future
// that completes as the shard's simulated clock advances. One client =
// one session = one runtime stream; its fair-share weight is fixed at
// open.
//
// Cross-session data: share() publishes a vector (handle + owning
// session) for other clients; submit_shared() runs a bulk op over any
// mix of shared vectors — the service plans a two-phase copy-then-
// compute when they span shards.
//
// A service_client instance is meant to be driven by a single thread.
// Many clients on many threads against one service is the supported —
// and tested — concurrency model.
#ifndef PIM_SERVICE_CLIENT_H
#define PIM_SERVICE_CLIENT_H

#include "service/client_api.h"
#include "service/service.h"

namespace pim::service {

class service_client final : public client_api {
 public:
  /// Opens a session on `svc` (which must outlive the client).
  explicit service_client(pim_service& svc, double weight = 1.0);

  session_id id() const override { return session_.id; }
  /// The session's current shard (migration moves it).
  int shard_index() const override { return svc_->owner_shard(session_.id); }

  /// Allocates `count` co-located bulk vectors of `size` bits on the
  /// session's current shard. Blocks. The client remembers every
  /// vector it allocated, in order, for digest().
  std::vector<dram::bulk_vector> allocate(bits size, int count) override;

  /// Host data movement through the service (blocking).
  void write(const dram::bulk_vector& v, const bitvector& data) override;
  bitvector read(const dram::bulk_vector& v) override;

  /// Submits one task; blocks only while the session's admission queue
  /// is full (backpressure).
  request_future submit(runtime::pim_task task);
  request_future submit_bulk(dram::bulk_op op, const dram::bulk_vector& a,
                             const dram::bulk_vector* b,
                             const dram::bulk_vector& d) override;

  /// Non-blocking variant: nullopt when the queue is full right now.
  std::optional<request_future> try_submit(runtime::pim_task task);

  /// Bulk op over shared vectors, possibly spanning sessions and
  /// shards: d = op(a[, b]). Blocks during the remote-fetch phase of a
  /// cross-shard plan; the returned future completes after compute and
  /// write-back.
  request_future submit_shared(dram::bulk_op op, const shared_vector& a,
                               const shared_vector* b,
                               const shared_vector& d) override;

  /// Blocks until every future this client received has completed.
  /// Rethrows the first failure.
  void wait_all() override;

  /// Digest of every vector this client allocated (in allocation
  /// order), after waiting out pending work. Two runs of the same
  /// client logic produce equal digests regardless of sharding,
  /// scheduling, or migration — the service's bit-for-bit equivalence
  /// check.
  std::uint64_t digest() override;

 private:
  request make_request(request_payload payload) const;

  pim_service* svc_ = nullptr;
  session_info session_;
  std::vector<request_future> pending_;
  std::vector<dram::bulk_vector> owned_;
};

}  // namespace pim::service

#endif  // PIM_SERVICE_CLIENT_H
