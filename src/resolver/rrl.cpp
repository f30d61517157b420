#include "resolver/rrl.hpp"

namespace nxd::resolver {

void ResponseRateLimiter::span_verdict(util::SimTime now, net::IPv4 source,
                                       const char* name,
                                       std::string_view detail) {
  if (spans_ == nullptr) return;
  ++span_seq_;
  const obs::SpanId s =
      spans_->trace_root(span_seq_, name, now, detail, span_instance_);
  spans_->end(s, now, static_cast<std::int64_t>(source.addr));
}

RrlVerdict ResponseRateLimiter::check(net::IPv4 source, util::SimTime now) {
  counters_.inc<&RrlStats::checked>();
  if (config_.responses_per_second <= 0) {
    counters_.inc<&RrlStats::passed>();
    span_verdict(now, source, "rrl_pass");
    return RrlVerdict::Pass;
  }
  auto it = sources_.find(source);
  if (it == sources_.end()) {
    if (config_.max_tracked_sources != 0 &&
        sources_.size() >= config_.max_tracked_sources) {
      // Sweep sources whose buckets have fully refilled — idle long enough
      // that forgetting them changes no verdict.
      for (auto victim = sources_.begin(); victim != sources_.end();) {
        if (victim->second.bucket.tokens_at(now) >=
            victim->second.bucket.capacity()) {
          victim = sources_.erase(victim);
          counters_.inc<&RrlStats::sources_evicted>();
        } else {
          ++victim;
        }
      }
    }
    if (config_.max_tracked_sources != 0 &&
        sources_.size() >= config_.max_tracked_sources) {
      // Table full of actively metered sources: answer the newcomer
      // unmetered rather than evicting live limiter state, but count it.
      counters_.inc<&RrlStats::table_overflow>();
      counters_.inc<&RrlStats::passed>();
      span_verdict(now, source, "rrl_pass", "overflow");
      return RrlVerdict::Pass;
    }
    it = sources_
             .emplace(source,
                      Source{util::TokenBucket(config_.burst,
                                               config_.responses_per_second),
                             0})
             .first;
  }
  // Degradation ladder: above Normal, every response costs more tokens —
  // the effective per-source rate shrinks by 25%/50%/75% without touching
  // bucket state, so the tightening releases the moment pressure does.
  double cost = 1.0;
  if (pressure_ != nullptr) {
    const int level = pressure_->level_index();
    if (level > 0) {
      cost = obs::PressureSignal::cost_multiplier(level);
      counters_.inc<&RrlStats::pressure_scaled>();
    }
  }
  if (it->second.bucket.try_acquire(now, cost)) {
    counters_.inc<&RrlStats::passed>();
    span_verdict(now, source, "rrl_pass");
    return RrlVerdict::Pass;
  }
  // Limited: slip every `slip`-th limited response, drop the rest.
  ++it->second.limited_count;
  if (config_.slip != 0 && it->second.limited_count % config_.slip == 0) {
    counters_.inc<&RrlStats::slipped>();
    span_verdict(now, source, "rrl_slip");
    return RrlVerdict::Slip;
  }
  counters_.inc<&RrlStats::dropped>();
  span_verdict(now, source, "rrl_drop");
  return RrlVerdict::Drop;
}

dns::Message slip_truncate(const dns::Message& response) {
  dns::Message slipped;
  slipped.header = response.header;
  slipped.header.tc = true;
  slipped.questions = response.questions;
  return slipped;
}

}  // namespace nxd::resolver
