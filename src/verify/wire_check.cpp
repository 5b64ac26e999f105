#include "verify/wire_check.h"

#include <map>
#include <string>

#include "net/protocol.h"

namespace pim::verify {

namespace {

constexpr std::uint8_t raw(net::opcode op) {
  return static_cast<std::uint8_t>(op);
}

}  // namespace

wire_schema_info canonical_wire_schema() {
  using net::opcode;
  wire_schema_info s;
  s.error_opcode = raw(opcode::error);
  s.opcodes = {
      // requests                                 response
      {raw(opcode::open_session), "open_session", true, raw(opcode::opened)},
      {raw(opcode::close_session), "close_session", true, raw(opcode::closed)},
      {raw(opcode::allocate), "allocate", true, raw(opcode::vectors)},
      {raw(opcode::write), "write", true, raw(opcode::done)},
      {raw(opcode::read), "read", true, raw(opcode::data)},
      {raw(opcode::submit), "submit", true, raw(opcode::done)},
      {raw(opcode::submit_shared), "submit_shared", true, raw(opcode::done)},
      {raw(opcode::wait), "wait", true, raw(opcode::waited)},
      {raw(opcode::get_metrics), "get_metrics", true, raw(opcode::metrics_report)},
      {raw(opcode::trace_ctl), "trace_ctl", true, raw(opcode::trace_ack)},
      {raw(opcode::snapshot), "snapshot", true, raw(opcode::snapshot_report)},
      // responses
      {raw(opcode::opened), "opened", false, 0},
      {raw(opcode::closed), "closed", false, 0},
      {raw(opcode::vectors), "vectors", false, 0},
      {raw(opcode::data), "data", false, 0},
      {raw(opcode::done), "done", false, 0},
      {raw(opcode::waited), "waited", false, 0},
      {raw(opcode::error), "error", false, 0},
      {raw(opcode::metrics_report), "metrics_report", false, 0},
      {raw(opcode::trace_ack), "trace_ack", false, 0},
      {raw(opcode::snapshot_report), "snapshot_report", false, 0},
  };
  // Closedness against the real protocol: one schema entry per
  // net_message alternative. Adding a message type without extending
  // this table fails the build here; pim_lint and the mutation tests
  // take it from there.
  static_assert(21 == std::variant_size_v<net::net_message>,
                "net_message changed: extend canonical_wire_schema()");
  return s;
}

report check_wire_schema(const wire_schema_info& schema) {
  report r;
  r.artifact = "wire_schema";

  std::map<std::uint8_t, const opcode_info*> by_value;
  for (std::size_t i = 0; i < schema.opcodes.size(); ++i) {
    const opcode_info& op = schema.opcodes[i];
    const int loc = static_cast<int>(i);

    if (op.request ? op.value >= 64 : op.value < 64) {
      r.add(diag::opcode_range, loc,
            std::string(op.name) + " (" + std::to_string(op.value) + ") is a " +
                (op.request ? "request >= 64" : "response < 64"));
    }
    const auto [it, inserted] = by_value.emplace(op.value, &op);
    if (!inserted) {
      r.add(diag::duplicate_opcode, loc,
            std::string(op.name) + " reuses opcode " +
                std::to_string(op.value) + " of " + it->second->name);
    }
  }

  // Every request needs a response arm that exists and is a response;
  // and the error response any request can be answered with must
  // itself exist.
  const auto error_it = by_value.find(schema.error_opcode);
  if (error_it == by_value.end() || error_it->second->request) {
    r.add(diag::missing_response_arm, -1,
          "error response opcode " + std::to_string(schema.error_opcode) +
              " is not a response in the schema");
  }
  for (std::size_t i = 0; i < schema.opcodes.size(); ++i) {
    const opcode_info& op = schema.opcodes[i];
    if (!op.request) continue;
    const int loc = static_cast<int>(i);
    const auto it = by_value.find(op.response);
    if (it == by_value.end() || it->second->request ||
        it->second == &op) {
      r.add(diag::missing_response_arm, loc,
            std::string(op.name) + " names response opcode " +
                std::to_string(op.response) + ", which is not a response");
    }
  }

  return r;
}

}  // namespace pim::verify
