#include "verify/wire_check.h"

#include <map>
#include <string>

#include "net/protocol.h"

namespace pim::verify {

wire_schema_info canonical_wire_schema() {
  wire_schema_info s;
  s.error_opcode = net::error_resp::code;
  // Read from the message declarations, so every net_message
  // alternative has its entry, in variant order.
  net::for_each_message([&s](auto type) {
    using M = typename decltype(type)::type;
    opcode_info op{M::code, M::name, false, 0};
    if constexpr (requires { typename M::response; }) {
      op.request = true;
      op.response = M::response::code;
    }
    s.opcodes.push_back(op);
  });
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
