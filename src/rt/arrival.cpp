#include "rt/arrival.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace mcs::rt {

SporadicArrival::SporadicArrival(Time min_inter_arrival)
    : period_(min_inter_arrival) {
  MCS_REQUIRE(period_ > 0, "sporadic arrival needs positive inter-arrival");
}

std::uint64_t SporadicArrival::releases_in(Time delta) const {
  MCS_REQUIRE(delta >= 0, "releases_in: negative window");
  if (delta == 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(ceil_div(delta, period_));
}

std::uint64_t SporadicArrival::releases_in_closed(Time delta) const {
  MCS_REQUIRE(delta >= 0, "releases_in_closed: negative window");
  // Releases at 0, T, 2T, ... within [0, delta]: floor(delta / T) + 1.
  return static_cast<std::uint64_t>(delta / period_) + 1;
}

std::vector<std::int64_t> SporadicArrival::value_key() const {
  return {1, period_};
}

PeriodicJitterArrival::PeriodicJitterArrival(Time period, Time jitter)
    : period_(period), jitter_(jitter) {
  MCS_REQUIRE(period_ > 0, "periodic arrival needs positive period");
  MCS_REQUIRE(jitter_ >= 0, "negative jitter");
}

std::uint64_t PeriodicJitterArrival::releases_in(Time delta) const {
  MCS_REQUIRE(delta >= 0, "releases_in: negative window");
  if (delta == 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(ceil_div(delta + jitter_, period_));
}

std::uint64_t PeriodicJitterArrival::releases_in_closed(Time delta) const {
  MCS_REQUIRE(delta >= 0, "releases_in_closed: negative window");
  return static_cast<std::uint64_t>((delta + jitter_) / period_) + 1;
}

Time PeriodicJitterArrival::min_separation() const {
  // Two jittered releases can be as close as max(1, T - J).
  return std::max<Time>(1, period_ - jitter_);
}

std::vector<std::int64_t> PeriodicJitterArrival::value_key() const {
  return {2, period_, jitter_};
}

StaircaseArrival::StaircaseArrival(
    std::vector<std::pair<Time, std::uint64_t>> steps)
    : steps_(std::move(steps)) {
  Time prev_len = 0;
  std::uint64_t prev_count = 0;
  for (const auto& [len, count] : steps_) {
    MCS_REQUIRE(len > prev_len || (prev_len == 0 && len == 0),
                "staircase steps must be strictly increasing in length");
    MCS_REQUIRE(count >= prev_count,
                "staircase release counts must be non-decreasing");
    prev_len = len;
    prev_count = count;
  }
}

std::uint64_t StaircaseArrival::releases_in(Time delta) const {
  MCS_REQUIRE(delta >= 0, "releases_in: negative window");
  std::uint64_t count = 0;
  for (const auto& [len, step_count] : steps_) {
    if (len <= delta) {
      count = step_count;
    } else {
      break;
    }
  }
  return count;
}

Time StaircaseArrival::min_separation() const {
  // Conservative: the smallest window that admits two releases.
  for (const auto& [len, count] : steps_) {
    if (count >= 2) {
      return std::max<Time>(1, len);
    }
  }
  return 1;
}

std::vector<std::int64_t> StaircaseArrival::value_key() const {
  std::vector<std::int64_t> key{3};
  key.reserve(1 + 2 * steps_.size());
  for (const auto& [len, count] : steps_) {
    key.push_back(len);
    key.push_back(static_cast<std::int64_t>(count));
  }
  return key;
}

ArrivalCurvePtr make_sporadic(Time min_inter_arrival) {
  return std::make_shared<SporadicArrival>(min_inter_arrival);
}

}  // namespace mcs::rt
