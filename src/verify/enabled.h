// PIM_VERIFY_ENABLED decides whether the hot paths check what they
// just built or chose: query::plan_query and pim_service::submit_cross
// assert_ok() their plan's report, and the DRAM controller checks each
// step of a quiet run against its full candidate walk. It defaults to
// the build type — on in debug, off (zero code, zero cost) in release —
// and the CMake cache variable PIM_VERIFY=ON/OFF/AUTO overrides it per
// build tree, which is how CI turns it on under sanitizers and the
// release-parity test proves digests are identical either way.
#ifndef PIM_VERIFY_ENABLED_H
#define PIM_VERIFY_ENABLED_H

#ifndef PIM_VERIFY_ENABLED
#ifdef NDEBUG
#define PIM_VERIFY_ENABLED 0
#else
#define PIM_VERIFY_ENABLED 1
#endif
#endif

#endif  // PIM_VERIFY_ENABLED_H
