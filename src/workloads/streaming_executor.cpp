#include "workloads/streaming_executor.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads/prefetch_source.hpp"

namespace parsvd::workloads {

Index run_streaming(SvdBase& svd, std::unique_ptr<BatchSource> source,
                    const StreamingExecutorOptions& opts) {
  PARSVD_REQUIRE(source != nullptr, "run_streaming: null source");
  PARSVD_REQUIRE(opts.batch_cols > 0,
                 "run_streaming: batch_cols must be positive");
  PARSVD_REQUIRE(!source->exhausted(), "run_streaming: source is empty");
  PARSVD_TRACE_SCOPE("stream.run");
  static obs::Counter& batch_count =
      obs::Registry::global().counter("stream.batches");

  if (opts.prefetch) {
    source = std::make_unique<PrefetchingBatchSource>(
        std::move(source), opts.batch_cols, opts.prefetch_depth);
  }

  const auto pull = [&] {
    PARSVD_TRACE_SCOPE("stream.ingest");
    return source->next_batch(opts.batch_cols);
  };

  Index batches = 0;
  {
    PARSVD_TRACE_SCOPE("stream.initialize");
    svd.initialize(pull());
  }
  ++batches;
  batch_count.add(1);
  while (!source->exhausted()) {
    PARSVD_TRACE_SCOPE("stream.incorporate");
    svd.incorporate_data(pull());
    ++batches;
    batch_count.add(1);
  }
  // Shut the source down (joining a prefetch worker) inside stream.run,
  // so the trace accounts for it instead of leaving a gap after the span.
  source.reset();
  return batches;
}

}  // namespace parsvd::workloads
