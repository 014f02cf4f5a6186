// Nesting-aware self time and coverage of recorded trace spans.
//
// Spans on one thread track come from RAII scopes, so they nest; a
// sweep over them in start order (longer first at equal starts) hands
// every instant of the track to the innermost span open at that instant.
// A span's self time is the part of its interval no later-opened span
// covers, and the self times of one track sum to the union of its spans.
// The sweep never double-counts, even for spans that are not properly
// nested (a child outliving its parent keeps the overhang), and a
// zero-length span can never enclose another.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace parsvd::e2e {

struct Span {
  int pid = 0;  // trace process row: rank + 1, 0 = shared threads
  int tid = 0;  // thread track within the row
  int name = 0;  // caller-chosen name id
  std::int64_t start = 0;
  std::int64_t end = 0;  // >= start
};

/// Self time of every span, in input order. Spans of different (pid, tid)
/// tracks never nest into each other.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.pid != y.pid) return x.pid < y.pid;
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start != y.start) return x.start < y.start;
    if (x.end != y.end) return x.end > y.end;  // parent before child
    return a < b;
  });

  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::size_t> stack;
  std::int64_t t = 0;  // time up to which the track is attributed
  // Closes every open span ending at or before `until`, handing each the
  // stretch between the attribution cursor and its end.
  const auto close_until = [&](std::int64_t until) {
    while (!stack.empty() && spans[stack.back()].end <= until) {
      const std::size_t top = stack.back();
      stack.pop_back();
      self[top] += std::max<std::int64_t>(0, spans[top].end - t);
      t = std::max(t, spans[top].end);
    }
  };
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Span& s = spans[order[k]];
    const bool new_track =
        k == 0 || spans[order[k - 1]].pid != s.pid ||
        spans[order[k - 1]].tid != s.tid;
    if (new_track) {
      close_until(INT64_MAX);
      t = s.start;
    }
    close_until(s.start);
    if (!stack.empty()) {
      self[stack.back()] += std::max<std::int64_t>(0, s.start - t);
    }
    t = std::max(t, s.start);
    stack.push_back(order[k]);
  }
  close_until(INT64_MAX);
  return self;
}

/// Length of the union of [start, end) intervals.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

inline std::int64_t union_length(std::vector<Interval> ivals) {
  std::sort(ivals.begin(), ivals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t last_end = INT64_MIN;
  for (const Interval& iv : ivals) {
    if (iv.start >= last_end) {
      covered += iv.end - iv.start;
      last_end = iv.end;
    } else if (iv.end > last_end) {
      covered += iv.end - last_end;
      last_end = iv.end;
    }
  }
  return covered;
}

}  // namespace parsvd::e2e
