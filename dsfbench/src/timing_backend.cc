#include "timing_backend.h"

#include <chrono>
#include <utility>

namespace dsfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

dsf::StorageBackendFactory TimingBackend::Wrap(
    dsf::StorageBackendFactory inner, TimingBackend** created) {
  return [inner = std::move(inner), created](int64_t num_pages,
                                             int64_t page_capacity)
             -> dsf::StatusOr<std::unique_ptr<dsf::StorageBackend>> {
    dsf::StatusOr<std::unique_ptr<dsf::StorageBackend>> backend =
        inner(num_pages, page_capacity);
    if (!backend.ok()) return backend.status();
    auto timing = std::make_unique<TimingBackend>(std::move(*backend));
    *created = timing.get();
    return std::unique_ptr<dsf::StorageBackend>(std::move(timing));
  };
}

dsf::Status TimingBackend::WritePage(dsf::Address address,
                                     const dsf::Page& page) {
  const Clock::time_point start = Clock::now();
  dsf::Status s = inner_->WritePage(address, page);
  const int64_t ns = NsSince(start);
  stats_.write_ns.push_back(ns);
  stats_.busy_ns += ns;
  return s;
}

dsf::Status TimingBackend::ReadPage(dsf::Address address, dsf::Page* out) {
  const Clock::time_point start = Clock::now();
  dsf::Status s = inner_->ReadPage(address, out);
  const int64_t ns = NsSince(start);
  stats_.read_ns.push_back(ns);
  stats_.busy_ns += ns;
  return s;
}

dsf::Status TimingBackend::SyncBarrier() {
  const Clock::time_point start = Clock::now();
  dsf::Status s = inner_->SyncBarrier();
  const int64_t ns = NsSince(start);
  stats_.sync_ns.push_back(ns);
  stats_.busy_ns += ns;
  return s;
}

}  // namespace dsfbench
