// TimingBackend: a StorageBackend decorator that times every device call.
//
// The benchmark installs it through DenseFile::Options::backend_factory
// around a FileBackend, so the library's own code is untouched: each
// WritePage / ReadPage / SyncBarrier is forwarded unchanged and its
// steady-clock duration is recorded here. VerifyOnRead() and Name() are
// forwarded, so the wrapped file behaves exactly like the bare one and
// its logical IoStats stay identical (tests/timing_backend_test.cc).
//
// Single-threaded: the samples are plain vectors, so the decorator is
// only for files driven by one client (the durable workload). The
// sharded workload's concurrent readers never reach a backend.

#ifndef DSFBENCH_TIMING_BACKEND_H_
#define DSFBENCH_TIMING_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/storage_backend.h"

namespace dsfbench {

class TimingBackend : public dsf::StorageBackend {
 public:
  struct Stats {
    std::vector<int64_t> read_ns;   // one sample per ReadPage
    std::vector<int64_t> write_ns;  // one sample per WritePage
    std::vector<int64_t> sync_ns;   // one sample per SyncBarrier
    int64_t busy_ns = 0;            // sum over all three
  };

  explicit TimingBackend(std::unique_ptr<dsf::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  // Wraps a backend factory: every backend it builds is decorated, and
  // *created points at the most recent decorator (owned by the file).
  static dsf::StorageBackendFactory Wrap(dsf::StorageBackendFactory inner,
                                         TimingBackend** created);

  int64_t num_pages() const override { return inner_->num_pages(); }
  int64_t page_capacity() const override { return inner_->page_capacity(); }
  dsf::Status WritePage(dsf::Address address,
                        const dsf::Page& page) override;
  dsf::Status ReadPage(dsf::Address address, dsf::Page* out) override;
  dsf::Status SyncBarrier() override;
  bool VerifyOnRead() const override { return inner_->VerifyOnRead(); }
  std::string Name() const override { return inner_->Name(); }

  dsf::StorageBackend& inner() { return *inner_; }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  std::unique_ptr<dsf::StorageBackend> inner_;
  Stats stats_;
};

}  // namespace dsfbench

#endif  // DSFBENCH_TIMING_BACKEND_H_
