// Bounded LRU verdict cache for the admission-control service
// (docs/SERVICE.md §Caching).
//
// Keys are canonical task-set fingerprints (svc/fingerprint.hpp); values
// are complete verdicts — schedulability, per-task WCRT bounds, and the
// greedy LS marking — so a cache hit answers a request without touching
// the analysis engine at all.  Degraded (budget-truncated) verdicts are
// never inserted: they depend on wall-clock luck, and serving one from
// cache would hand a stale pessimistic answer to a caller who paid for a
// full solve.
//
// The cache is not internally synchronized; AdmissionService guards it
// with its state mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rt/types.hpp"

namespace mcs::svc {

/// A complete analysis outcome, sufficient to render a response and to
/// audit against a fresh engine run (check::kLevelLint).
///
/// `names`, `wcrt`, and `ls` are aligned and in canonical (priority-
/// ascending) order.  `wcrt[i] == rt::kTimeMax` means the bound diverged
/// (rendered as JSON null).
struct Verdict {
  bool schedulable = false;
  bool degraded = false;    ///< some bound fell back to the LP dual bound
                            ///< because a request budget expired
  bool relaxation = false;  ///< some solve used the LP relaxation path
  int rounds = 0;           ///< greedy promotion rounds (0 for marked/wp)
  std::vector<std::string> names;
  std::vector<rt::Time> wcrt;
  std::vector<bool> ls;  ///< final LS marking
};

/// Fixed-capacity LRU map from fingerprint to Verdict.
class VerdictCache {
 public:
  /// `capacity` == 0 disables the cache (every lookup misses).
  explicit VerdictCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached verdict and refreshes its recency, or nullopt.
  std::optional<Verdict> lookup(std::uint64_t key);

  /// Inserts (or refreshes) `key`; evicts the least-recently-used entry
  /// when full.  Returns true when an eviction happened.
  bool insert(std::uint64_t key, Verdict verdict);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  void clear();

 private:
  struct Entry {
    std::uint64_t key = 0;
    Verdict verdict;
  };

  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> entries_;
};

}  // namespace mcs::svc
