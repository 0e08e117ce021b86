#include "storage/page_file.h"

#include <thread>

#include "util/check.h"

#if defined(__GNUC__) || defined(__clang__)
#define DSF_PREDICT_FALSE(x) (__builtin_expect(!!(x), 0))
#else
#define DSF_PREDICT_FALSE(x) (x)
#endif

namespace dsf {

PageFile::PageFile(int64_t num_pages, int64_t page_capacity,
                   std::unique_ptr<StorageBackend> backend)
    : num_pages_(num_pages),
      page_capacity_(page_capacity),
      backend_(std::move(backend)) {
  DSF_CHECK(num_pages >= 1) << "PageFile needs at least one page";
  DSF_CHECK(page_capacity >= 1) << "PageFile needs positive page capacity";
  if (backend_ != nullptr) {
    DSF_CHECK(backend_->num_pages() == num_pages &&
              backend_->page_capacity() == page_capacity)
        << "backend geometry does not match the file";
    write_scratch_ = Page(page_capacity);
    return;
  }
  // Empty pages allocate no record storage; each grows with its records.
  pages_.assign(static_cast<size_t>(num_pages), Page(page_capacity));
}

// Fault charging and latency sleeping, in the order the fast path used to
// interleave them: the access is already charged to the tracker by the
// caller (counters AND sim_elapsed_ns both follow the charged-before-
// consult rule), the policy is consulted, and only a surviving access
// pays the real sleep — for exactly the nanoseconds the tracker charged,
// so wall time and sim_elapsed_ns derive from one classification.
Status PageFile::SlowPathAccess(Address address, bool is_write,
                                int64_t charge_ns) {
  if (fault_policy_ != nullptr) {
    DSF_RETURN_IF_ERROR(fault_policy_->OnAccess(address, is_write));
  }
  if (sleep_on_access_ && charge_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(charge_ns));
  }
  return Status::OK();
}

Status PageFile::Charge(Address address, bool is_write) {
  if (address < 1 || address > num_pages_) {
    return Status::OutOfRange(std::string(is_write ? "write" : "read") +
                              " address " + std::to_string(address) +
                              " outside [1," + std::to_string(num_pages_) +
                              "]");
  }
  const int64_t charge_ns = tracker_.OnAccess(address, is_write);
  if (DSF_PREDICT_FALSE(slow_path_)) {
    return SlowPathAccess(address, is_write, charge_ns);
  }
  return Status::OK();
}

namespace {

// Backend reads stage through thread-local pages, so concurrent
// shared-lock readers never share a buffer: one for Read, one for Peek
// (a Peek reference survives the thread's accounted reads).
Page& Sized(Page& page, int64_t capacity) {
  if (page.capacity() != capacity) page = Page(capacity);
  return page;
}

}  // namespace

Status PageFile::Read(Address address, std::vector<Record>* out) {
  tracker_.OnLogical(/*is_write=*/false);
  DSF_RETURN_IF_ERROR(Charge(address, /*is_write=*/false));
  if (backend_ == nullptr) {
    const std::vector<Record>& records =
        pages_[static_cast<size_t>(address - 1)].records();
    out->insert(out->end(), records.begin(), records.end());
    return Status::OK();
  }
  thread_local Page staging;
  Page& page = Sized(staging, page_capacity_);
  DSF_RETURN_IF_ERROR(backend_->ReadPage(address, &page));
  out->insert(out->end(), page.records().begin(), page.records().end());
  return Status::OK();
}

Status PageFile::Write(Address address, std::span<const Record> records) {
  tracker_.OnLogical(/*is_write=*/true);
  DSF_RETURN_IF_ERROR(Charge(address, /*is_write=*/true));
  return Store(address, records);
}

Status PageFile::DeviceRead(Address address, Page* out) {
  DSF_RETURN_IF_ERROR(Charge(address, /*is_write=*/false));
  if (backend_ == nullptr) {
    *out = pages_[static_cast<size_t>(address - 1)];
    return Status::OK();
  }
  return backend_->ReadPage(address, out);
}

Status PageFile::DeviceWrite(Address address, const Page& page) {
  DSF_RETURN_IF_ERROR(Charge(address, /*is_write=*/true));
  if (backend_ == nullptr) return Store(address, page.records());
  return BackendWrite(address, page);
}

Status PageFile::CheckRange(Address first, int64_t n, const char* op) const {
  if (first < 1 || n < 0 || first + n - 1 > num_pages_) {
    return Status::OutOfRange(std::string(op) + " address " +
                              std::to_string(first) +
                              (n == 1 ? "" : " (+" + std::to_string(n) + ")") +
                              " outside [1," + std::to_string(num_pages_) +
                              "]");
  }
  return Status::OK();
}

Status PageFile::RawWrite(Address address, std::span<const Record> records) {
  DSF_RETURN_IF_ERROR(CheckRange(address, 1, "raw write"));
  return Store(address, records);
}

Status PageFile::RawWriteRun(Address first,
                             std::span<const std::span<const Record>> pages) {
  DSF_RETURN_IF_ERROR(
      CheckRange(first, static_cast<int64_t>(pages.size()), "raw write"));
  if (backend_ == nullptr) {
    for (size_t i = 0; i < pages.size(); ++i) {
      DSF_RETURN_IF_ERROR(Store(first + static_cast<Address>(i), pages[i]));
    }
    return Status::OK();
  }
  if (!sync_failure_.ok()) return sync_failure_;
  // Even a failed run may have written a prefix.
  dirty_since_sync_ = true;
  return backend_->WriteRun(first, pages);
}

Status PageFile::Store(Address address, std::span<const Record> records) {
  Page& page = backend_ == nullptr ? pages_[static_cast<size_t>(address - 1)]
                                   : write_scratch_;
  page.Clear();
  page.AppendHigh(records.data(), records.data() + records.size());
  if (backend_ == nullptr) return Status::OK();
  return BackendWrite(address, page);
}

Status PageFile::BackendWrite(Address address, const Page& page) {
  if (!sync_failure_.ok()) return sync_failure_;
  DSF_RETURN_IF_ERROR(backend_->WritePage(address, page));
  dirty_since_sync_ = true;
  return Status::OK();
}

const Page& PageFile::Peek(Address address, Status* read_status) const {
  DSF_CHECK(address >= 1 && address <= num_pages_)
      << "Peek address " << address << " outside [1," << num_pages_ << "]";
  if (read_status != nullptr) *read_status = Status::OK();
  if (backend_ == nullptr) return pages_[static_cast<size_t>(address - 1)];
  thread_local Page scratch;
  Page& page = Sized(scratch, page_capacity_);
  const Status s = backend_->ReadPage(address, &page);
  if (!s.ok()) {
    page.Clear();
    if (read_status != nullptr) *read_status = s;
  }
  return page;
}

void PageFile::PeekRun(Address first, std::span<const Page*> out,
                       std::span<Status> status) const {
  const int64_t n = static_cast<int64_t>(out.size());
  DSF_CHECK(first >= 1 && first + n - 1 <= num_pages_)
      << "PeekRun [" << first << ", " << first + n - 1 << "] outside [1,"
      << num_pages_ << "]";
  if (backend_ == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)] = &pages_[static_cast<size_t>(first - 1 + i)];
      status[static_cast<size_t>(i)] = Status::OK();
    }
    return;
  }
  thread_local std::vector<Page> scratch;
  if (static_cast<int64_t>(scratch.size()) < n) {
    scratch.resize(static_cast<size_t>(n));
  }
  for (int64_t i = 0; i < n; ++i) {
    Sized(scratch[static_cast<size_t>(i)], page_capacity_);
  }
  std::span<Page> pages(scratch.data(), static_cast<size_t>(n));
  backend_->ReadRun(first, pages, status);
  for (size_t i = 0; i < pages.size(); ++i) {
    if (!status[i].ok()) pages[i].Clear();
    out[i] = &pages[i];
  }
}

Status PageFile::SyncBarrier() {
  if (backend_ == nullptr) return Status::OK();
  if (!sync_failure_.ok()) return sync_failure_;
  if (!dirty_since_sync_) return Status::OK();  // nothing written since last
  const Status s = backend_->SyncBarrier();
  if (!s.ok()) {
    sync_failure_ = Status::IoError(
        "device failed a persistence barrier (" + s.ToString() +
        "); unsynced writes may be lost, reopen to recover");
    return sync_failure_;
  }
  dirty_since_sync_ = false;
  return Status::OK();
}

void PageFile::ResetStats() { tracker_.Reset(); }

int64_t PageFile::TotalRecords() const {
  int64_t total = 0;
  for (Address a = 1; a <= num_pages_; ++a) total += Peek(a).size();
  return total;
}

bool PageFile::GloballyOrdered() const {
  bool have_previous = false;
  Key previous_max = 0;
  for (Address a = 1; a <= num_pages_; ++a) {
    const Page& p = Peek(a);
    if (!p.WellFormed()) return false;
    if (p.empty()) continue;
    if (have_previous && p.MinKey() <= previous_max) return false;
    previous_max = p.MaxKey();
    have_previous = true;
  }
  return true;
}

}  // namespace dsf
