#include "flexopt/analysis/arena.hpp"

#include "flexopt/analysis/incremental.hpp"
#include "flexopt/flexray/bus_layout.hpp"

namespace flexopt {

void AnalysisArena::bind(std::shared_ptr<const TaskStructure> s) {
  if (structure.get() == s.get() && completion.size() == s->n_acts) {
    ++reuses;
    return;
  }
  ++binds;
  structure = std::move(s);
  const TaskStructure& ts = *structure;
  completion.assign(ts.n_acts, 0);
  jitter.assign(ts.n_acts, 0);
  dirty.reset(ts.n_acts);

  const std::size_t n_dyn = ts.dyn_messages.size();
  dyn_prepared.assign(n_dyn, DynPrepared{});
  dyn_excess.assign(n_dyn, 0);
  hp_begin.assign(n_dyn + 1, 0);
  lf_begin.assign(n_dyn + 1, 0);
  hp_entries.clear();
  lf_entries.clear();
}

void AnalysisArena::prepare_dyn_geometry(const BusLayout& layout) {
  const TaskStructure& ts = *structure;
  const std::size_t n_dyn = ts.dyn_messages.size();
  const Time cycle = layout.cycle_len();
  const Time minislot = layout.params().gd_minislot;
  const Time st_len = layout.st_segment_len();

  for (std::size_t d = 0; d < n_dyn; ++d) {
    const auto m = static_cast<MessageId>(ts.dyn_messages[d]);
    DynPrepared& in = dyn_prepared[d];
    in.fid = layout.frame_id(m);
    in.p_latest = layout.p_latest_tx(ts.dyn_sender_node[d]);
    in.cycle = cycle;
    in.minislot = minislot;
    in.st_segment_len = st_len;
    // dyn_sigma: the slot passes earliest when all lower slots are empty.
    in.sigma = cycle - (st_len + static_cast<Time>(in.fid - 1) * minislot);
    in.occupancy = layout.message_occupancy(m);
    dyn_excess[d] = layout.message_minislots(m) - 1;
  }

  // hp/lf sets in BusLayout::hp()/lf() order (ascending message index).
  // lf keeps zero-excess members: their infinite jitter still unbounds the
  // recurrence even though they contribute no excess minislots.
  hp_entries.clear();
  lf_entries.clear();
  for (std::size_t d = 0; d < n_dyn; ++d) {
    hp_begin[d] = static_cast<std::uint32_t>(hp_entries.size());
    lf_begin[d] = static_cast<std::uint32_t>(lf_entries.size());
    const int fid = dyn_prepared[d].fid;
    const std::int32_t pri = ts.msg_priority[ts.dyn_messages[d]];
    for (std::size_t d2 = 0; d2 < n_dyn; ++d2) {
      if (d2 == d) continue;
      const int f2 = dyn_prepared[d2].fid;
      if (f2 == fid && ts.msg_priority[ts.dyn_messages[d2]] < pri) {
        hp_entries.push_back({ts.dyn_messages[d2], ts.dyn_period[d2], 1});
      } else if (f2 < fid) {
        lf_entries.push_back({ts.dyn_messages[d2], ts.dyn_period[d2], dyn_excess[d2]});
      }
    }
  }
  hp_begin[n_dyn] = static_cast<std::uint32_t>(hp_entries.size());
  lf_begin[n_dyn] = static_cast<std::uint32_t>(lf_entries.size());
}

}  // namespace flexopt
