// Static checker for the wire opcode/response table (V3xx block).
//
// net/protocol.h declares each message's opcode, name and success
// response with its fields; what no type system enforces is that the
// *table* they form is consistent: every request opcode has a response
// arm, request and response values stay in their ranges (below/above
// 64), and no value is assigned twice. canonical_wire_schema() reads
// the table from those declarations, one entry per net_message
// alternative; check_wire_schema validates any schema — the canonical
// one in CI, seeded-bad copies in the mutation tests.
#ifndef PIM_VERIFY_WIRE_CHECK_H
#define PIM_VERIFY_WIRE_CHECK_H

#include <cstdint>
#include <vector>

#include "verify/diagnostics.h"

namespace pim::verify {

/// One opcode of the wire schema. For requests, `response` names the
/// success-response opcode (any request may also be answered by the
/// error response).
struct opcode_info {
  std::uint8_t value = 0;
  const char* name = "";
  bool request = false;
  std::uint8_t response = 0;  // requests only
};

struct wire_schema_info {
  /// Opcode of the error response that may answer any request.
  std::uint8_t error_opcode = 0;
  std::vector<opcode_info> opcodes;
};

/// The real protocol's table, read from the net/protocol.h message
/// declarations.
wire_schema_info canonical_wire_schema();

/// V301 opcode-range, V302 duplicate-opcode, V303 missing-response-arm.
report check_wire_schema(const wire_schema_info& schema);

}  // namespace pim::verify

#endif  // PIM_VERIFY_WIRE_CHECK_H
