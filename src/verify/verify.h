// Umbrella header of the static verification layer. PIM_VERIFY_ENABLED
// (verify/enabled.h) decides whether the hot paths check themselves.
//
// tools/pim_lint and the tests call the checkers directly; they do
// not consult this flag.
#ifndef PIM_VERIFY_VERIFY_H
#define PIM_VERIFY_VERIFY_H

#include "verify/enabled.h"
#include "verify/diagnostics.h"
#include "verify/graph_check.h"
#include "verify/plan_check.h"
#include "verify/program_check.h"
#include "verify/wire_check.h"

#endif  // PIM_VERIFY_VERIFY_H
