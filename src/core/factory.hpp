// Factory entry point mirroring the paper's factory design pattern (§4):
// one call site that yields either the serial or the distributed
// implementation behind the shared SvdBase interface.
#pragma once

#include <memory>

#include "core/parallel_streaming.hpp"
#include "core/streaming.hpp"

namespace parsvd {

/// Serial streaming SVD.
std::unique_ptr<SvdBase> make_streaming_svd(const StreamingOptions& opts);

/// Distributed streaming SVD over `comm` (must outlive the object).
std::unique_ptr<SvdBase> make_streaming_svd(const StreamingOptions& opts,
                                            pmpi::Communicator& comm);

}  // namespace parsvd
