// Explicit instantiations of Algorithm 1 for the shipped backends, on both
// switch schedules. The template definitions live in the header (the
// class is parameterized on the Backend policy and the schedule); this TU
// gives the library a compiled copy of each so downstream targets don't
// re-instantiate.
#include "core/kmult_counter.hpp"

namespace approx::core {

template class SwitchCounterT<base::DirectBackend, PaperSchedule>;
template class SwitchCounterT<base::RelaxedDirectBackend, PaperSchedule>;
template class SwitchCounterT<base::InstrumentedBackend, PaperSchedule>;
template class SwitchCounterT<base::DirectBackend, CorrectedSchedule>;
template class SwitchCounterT<base::RelaxedDirectBackend, CorrectedSchedule>;
template class SwitchCounterT<base::InstrumentedBackend, CorrectedSchedule>;

}  // namespace approx::core
