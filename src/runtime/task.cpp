#include "runtime/task.h"

namespace pim::runtime {

pim_task make_bulk_task(dram::bulk_op op, const dram::bulk_vector& a,
                        const dram::bulk_vector* b,
                        const dram::bulk_vector& d, int stream) {
  pim_task task;
  bulk_bool_args args;
  args.op = op;
  args.a = a;
  if (b != nullptr) args.b = *b;
  args.d = d;
  task.payload = std::move(args);
  task.stream = stream;
  return task;
}

std::string to_string(backend_kind backend) {
  switch (backend) {
    case backend_kind::ambit: return "ambit";
    case backend_kind::rowclone: return "rowclone";
    case backend_kind::ndp_logic: return "ndp_logic";
    case backend_kind::host: return "host";
  }
  throw std::logic_error("unknown backend kind");
}

}  // namespace pim::runtime
