// Arrival curves (paper §II): eta_i(delta) upper-bounds the number of
// release events of task i in any time interval of length delta.
//
// The paper's experiments use the sporadic event model eta(delta) =
// ceil(delta / T); periodic-with-jitter and explicit staircase curves are
// provided for generality and for tests.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "rt/types.hpp"

namespace mcs::rt {

/// Upper arrival curve: maximum number of releases in any window of length
/// `delta` (the paper's open-interval convention: a sporadic task with
/// minimum inter-arrival T has eta(kT) = k).
class ArrivalCurve {
 public:
  virtual ~ArrivalCurve() = default;

  /// Number of releases in any window of length `delta` >= 0.
  /// Must be monotone non-decreasing in `delta`, with eta(0) == 0.
  virtual std::uint64_t releases_in(Time delta) const = 0;

  /// Maximum releases in any *closed* window [a, a + delta] (both endpoints
  /// included) — what classical busy-period analyses count.  The default
  /// eta(delta) + 1 is always safe; subclasses tighten it.
  virtual std::uint64_t releases_in_closed(Time delta) const {
    return releases_in(delta) + 1;
  }

  /// Smallest separation between consecutive releases this curve allows;
  /// used for simulator release-pattern generation. 1 if unknown.
  virtual Time min_separation() const = 0;

  /// Value identity: a kind tag followed by the curve's parameters.  Two
  /// curves with equal keys have equal eta for every delta, so caches can
  /// compare curves by value instead of by address.
  virtual std::vector<std::int64_t> value_key() const = 0;
};

using ArrivalCurvePtr = std::shared_ptr<const ArrivalCurve>;

/// Sporadic / periodic model: eta(delta) = ceil(delta / T).
class SporadicArrival final : public ArrivalCurve {
 public:
  explicit SporadicArrival(Time min_inter_arrival);
  std::uint64_t releases_in(Time delta) const override;
  std::uint64_t releases_in_closed(Time delta) const override;
  Time min_separation() const override { return period_; }
  std::vector<std::int64_t> value_key() const override;
  Time period() const noexcept { return period_; }

 private:
  Time period_;
};

/// Periodic task with release jitter: eta(delta) = ceil((delta + J) / T).
class PeriodicJitterArrival final : public ArrivalCurve {
 public:
  PeriodicJitterArrival(Time period, Time jitter);
  std::uint64_t releases_in(Time delta) const override;
  std::uint64_t releases_in_closed(Time delta) const override;
  Time min_separation() const override;
  std::vector<std::int64_t> value_key() const override;
  Time period() const noexcept { return period_; }
  Time jitter() const noexcept { return jitter_; }

 private:
  Time period_;
  Time jitter_;
};

/// Explicit staircase curve given as (window length, releases) breakpoints;
/// releases_in(delta) = count of the last breakpoint with length <= delta.
/// Useful for table-driven tests and measured event models.
class StaircaseArrival final : public ArrivalCurve {
 public:
  /// `steps` must be sorted by window length, strictly increasing, with
  /// non-decreasing release counts; an implicit (0, 0) step is prepended.
  explicit StaircaseArrival(std::vector<std::pair<Time, std::uint64_t>> steps);
  std::uint64_t releases_in(Time delta) const override;
  Time min_separation() const override;
  std::vector<std::int64_t> value_key() const override;

 private:
  std::vector<std::pair<Time, std::uint64_t>> steps_;
};

/// Convenience factory for the paper's sporadic model.
ArrivalCurvePtr make_sporadic(Time min_inter_arrival);

}  // namespace mcs::rt
