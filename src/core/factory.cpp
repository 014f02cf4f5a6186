#include "core/factory.hpp"

namespace parsvd {

std::unique_ptr<SvdBase> make_streaming_svd(const StreamingOptions& opts) {
  return std::make_unique<SerialStreamingSVD>(opts);
}

std::unique_ptr<SvdBase> make_streaming_svd(const StreamingOptions& opts,
                                            pmpi::Communicator& comm) {
  return std::make_unique<ParallelStreamingSVD>(comm, opts);
}

}  // namespace parsvd
