#include "core/control_base.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "obs/metric_names.h"
#include "util/check.h"
#include "util/math.h"

namespace dsf {

std::string RepairReport::ToString() const {
  std::ostringstream os;
  os << "scanned=" << blocks_scanned << " resyncs=" << calibrator_resyncs
     << " dup_dropped=" << duplicate_records_dropped
     << " misordered=" << misordered_blocks << " overfull=" << overfull_pages
     << " packing=" << packing_violations
     << " corrupt=" << corrupt_pages.size()
     << " rewrote=" << (rewrote_file ? "yes" : "no")
     << " flags_rebuilt=" << (warning_state_rebuilt ? "yes" : "no");
  return os.str();
}

namespace {

// Physical page capacity D+1: one record may transiently exceed D inside
// a command before the maintenance steps drain it.
int64_t PhysicalPageCapacity(const ControlBase::Config& config) {
  return config.D + 1;
}

Calibrator::LeafUpdate MakeLeafUpdate(const Record* begin, const Record* end) {
  Calibrator::LeafUpdate u;
  if (begin != end) {
    u.count = end - begin;
    u.min_key = begin->key;
    u.max_key = (end - 1)->key;
  }
  return u;
}

}  // namespace

StatusOr<DensitySpec> ControlBase::MakeLogicalSpec(const Config& config) {
  if (config.num_pages < 1) {
    return Status::InvalidArgument("num_pages must be >= 1");
  }
  if (config.block_size < 1) {
    return Status::InvalidArgument("block_size must be >= 1");
  }
  if (config.num_pages % config.block_size != 0) {
    return Status::InvalidArgument(
        "num_pages must be a multiple of block_size");
  }
  if (config.d < 1 || config.D <= config.d) {
    return Status::InvalidArgument("need 1 <= d < D");
  }
  return DensitySpec::Create(config.num_pages / config.block_size,
                             config.block_size * config.d,
                             config.block_size * config.D);
}

StatusOr<std::unique_ptr<StorageBackend>> ControlBase::MakeBackend(
    const Config& config) {
  if (config.backend_factory == nullptr) {
    return std::unique_ptr<StorageBackend>();
  }
  const int64_t page_capacity = PhysicalPageCapacity(config);
  StatusOr<std::unique_ptr<StorageBackend>> backend =
      config.backend_factory(config.num_pages, page_capacity);
  if (!backend.ok()) return backend.status();
  if ((*backend)->num_pages() != config.num_pages ||
      (*backend)->page_capacity() != page_capacity) {
    return Status::FailedPrecondition(
        "backend geometry (" + std::to_string((*backend)->num_pages()) +
        " pages, capacity " + std::to_string((*backend)->page_capacity()) +
        ") does not match the file (" + std::to_string(config.num_pages) +
        ", " + std::to_string(page_capacity) + ")");
  }
  return backend;
}

ControlBase::ControlBase(const Config& config, DensitySpec logical_spec,
                         std::unique_ptr<StorageBackend> backend)
    : logical_spec_(logical_spec),
      smart_placement_(config.smart_placement),
      block_size_(config.block_size),
      num_blocks_(config.num_pages / config.block_size),
      page_d_(config.d),
      page_D_(config.D),
      file_(config.num_pages, PhysicalPageCapacity(config),
            std::move(backend)),
      calibrator_(num_blocks_) {
  if (config.cache_frames > 0) {
    BufferPool::Options pool_options;
    pool_options.num_frames = config.cache_frames;
    pool_options.eviction = config.cache_eviction;
    pool_ = std::make_unique<BufferPool>(&file_, pool_options);
  }
}

const Page& ControlBase::PeekLogical(Address page,
                                     Status* read_status) const {
  if (pool_ != nullptr) {
    const Page* frame = pool_->PeekFrame(page);
    if (frame != nullptr) {
      if (read_status != nullptr) *read_status = Status::OK();
      return *frame;
    }
  }
  return file_.Peek(page, read_status);
}

Status ControlBase::Flush() {
  if (pool_ != nullptr) DSF_RETURN_IF_ERROR(pool_->FlushAll());
  return file_.SyncBarrier();
}

void ControlBase::DiscardCache() {
  if (pool_ != nullptr) pool_->DropAll();
  // A dropped cache ends any open drain window: there is nothing left
  // to defer, and post-crash commands must flush per command again.
  defer_flush_ = false;
}

int64_t ControlBase::PagesUsed(int64_t count) const {
  if (count == 0) return 0;
  return std::min(block_size_, DivCeil(count, page_D_));
}

StatusOr<std::vector<Record>> ControlBase::ReadBlock(Address block) {
  std::vector<Record> out;
  out.reserve(
      static_cast<size_t>(calibrator_.Count(calibrator_.LeafOf(block))));
  DSF_RETURN_IF_ERROR(ReadBlockInto(block, &out));
  return out;
}

Status ControlBase::ReadLogical(Address page, std::vector<Record>* out) {
  if (pool_ == nullptr) return file_.Read(page, out);
  StatusOr<PageGuard> guard = pool_->PinRead(page, "ControlBase::ReadLogical");
  DSF_RETURN_IF_ERROR(guard.status());
  const std::vector<Record>& records = guard->page().records();
  out->insert(out->end(), records.begin(), records.end());
  return Status::OK();
}

Status ControlBase::WriteLogical(Address page, std::span<const Record> records) {
  if (pool_ == nullptr) return file_.Write(page, records);
  if (defer_flush_) {
    // Inside a drain window, a byte-identical page rewrite is skipped
    // outright: the device (or the frame's pending flush at an
    // order-correct earlier slot) already holds these bytes, so the
    // write would only churn the pool's dirty-order list.
    const Page* cached = pool_->PeekFrame(page);
    if (cached != nullptr &&
        std::equal(cached->records().begin(), cached->records().end(),
                   records.begin(), records.end())) {
      return Status::OK();
    }
  }
  // Full-page overwrite: the pool skips the miss read and hands out a
  // cleared dirty frame. The pool's dirty-order list preserves the
  // crash-safe order the caller chose — frames reach the device in the
  // order they were dirtied, not in address order. Drain windows use
  // the content-aware path so the pool can absorb additive rewrites and
  // relocate dependency-free ones (buffer_pool.h rules 2'/3†) instead
  // of force-flushing the prefix on every re-dirty.
  const Record* begin = records.data();
  const Record* end = begin + records.size();
  StatusOr<PageGuard> guard =
      defer_flush_ ? pool_->PinForRewrite(page, begin, end,
                                          "ControlBase::WriteLogical")
                   : pool_->PinForOverwrite(page, "ControlBase::WriteLogical");
  DSF_RETURN_IF_ERROR(guard.status());
  guard->mutable_page()->AppendHigh(begin, end);
  return Status::OK();
}

Status ControlBase::FreeLogical(Address page) {
  // A real system records a freed page in metadata; clearing it is
  // bookkeeping, not I/O. Pooled, the clear must ride the dirty order
  // (it may not overtake the in-cache writes that moved its records).
  if (pool_ != nullptr) return pool_->MarkFree(page);
  // lint:allow(raw-page-io): freed-tail clear is unaccounted device
  // maintenance per the accounting rule in storage/page_file.h.
  return file_.RawWrite(page, {});
}

Status ControlBase::ReadBlockInto(Address block, std::vector<Record>* out) {
  const int64_t count = calibrator_.Count(calibrator_.LeafOf(block));
  const int64_t used = PagesUsed(count);
  const int64_t before = static_cast<int64_t>(out->size());
  const Address first = FirstPhysicalPage(block);
  for (int64_t i = 0; i < used; ++i) {
    DSF_RETURN_IF_ERROR(ReadLogical(first + i, out));
  }
  (void)before;
  DSF_DCHECK(static_cast<int64_t>(out->size()) - before == count)
      << "block " << block << " layout out of sync";
  return Status::OK();
}

Status ControlBase::WriteBlock(Address block,
                               const std::vector<Record>& records,
                               BlockWriteOrder order) {
  return WriteBlock(block, records.data(), records.data() + records.size(),
                    order);
}

Status ControlBase::WriteBlock(Address block, const Record* begin,
                               const Record* end, BlockWriteOrder order) {
  const Status s = WriteBlockPages(block, begin, end, order);
  if (!s.ok()) {
    // The device holds a mix of old and new pages; make the calibrator
    // tell the truth about it before surfacing the error.
    ResyncRangeFromRaw(block, block);
    return s;
  }
  const Calibrator::LeafUpdate u = MakeLeafUpdate(begin, end);
  calibrator_.SyncLeaf(block, u.count, u.min_key, u.max_key);
  return Status::OK();
}

Status ControlBase::WriteBlockPages(Address block, const Record* begin,
                                    const Record* end, BlockWriteOrder order) {
  const int64_t old_count = calibrator_.Count(calibrator_.LeafOf(block));
  const int64_t old_used = PagesUsed(old_count);
  const int64_t n = end - begin;
  const int64_t used = PagesUsed(n);
  DSF_CHECK(n <= block_size_ * page_D_ + 1)
      << "block overfull beyond the one-record transient";

  // Slice the buffer into pages first: pages before the last take exactly
  // D, the last takes the remainder (up to D+1 in the transient case).
  // Then write the slices in crash-safe order (see BlockWriteOrder): a
  // growing block's content shifts toward higher pages, so writing
  // right-to-left guarantees a record is duplicated into its new page
  // before the page holding its old copy is overwritten; shrinking is the
  // mirror image. The slices are independent, so order only matters for
  // what a crash between two page writes leaves behind.
  const Address first = FirstPhysicalPage(block);
  const bool backward = order == BlockWriteOrder::kBackward ||
                        (order == BlockWriteOrder::kAuto && n >= old_count);
  for (int64_t step = 0; step < used; ++step) {
    const int64_t i = backward ? used - 1 - step : step;
    const int64_t offset = i * page_D_;
    const int64_t take = (i + 1 < used) ? page_D_ : n - offset;
    DSF_RETURN_IF_ERROR(WriteLogical(
        first + i, {begin + offset, static_cast<size_t>(take)}));
  }
  // Pages that fall out of the used prefix become free.
  for (int64_t i = used; i < old_used; ++i) {
    DSF_RETURN_IF_ERROR(FreeLogical(first + i));
  }
  return Status::OK();
}

void ControlBase::ResyncRangeFromRaw(Address lo, Address hi) {
  std::vector<Calibrator::LeafUpdate> leaves;
  leaves.reserve(static_cast<size_t>(hi - lo + 1));
  for (Address block = lo; block <= hi; ++block) {
    const Address first = FirstPhysicalPage(block);
    Calibrator::LeafUpdate u;
    for (int64_t i = 0; i < block_size_; ++i) {
      const Page& page = PeekLogical(first + i);
      // A torn block may interleave old and new pages, so the true
      // extrema need a full scan of every record, not just the first and
      // last page.
      for (const Record& r : page.records()) {
        if (u.count == 0 || r.key < u.min_key) u.min_key = r.key;
        if (u.count == 0 || r.key > u.max_key) u.max_key = r.key;
        ++u.count;
      }
    }
    leaves.push_back(u);
  }
  calibrator_.SyncLeaves(lo, leaves);
}

void ControlBase::SyncBlock(Address block,
                            const std::vector<Record>& records) {
  if (records.empty()) {
    calibrator_.SyncLeaf(block, 0, 0, 0);
  } else {
    calibrator_.SyncLeaf(block, static_cast<int64_t>(records.size()),
                         records.front().key, records.back().key);
  }
}

Address ControlBase::BlockPossiblyContaining(Key key) const {
  return calibrator_.FirstNonEmptyPageWithMaxGE(key);
}

Address ControlBase::TargetBlockForInsert(Key key) const {
  const Address successor_block = calibrator_.FirstNonEmptyPageWithMaxGE(key);
  if (successor_block == 0) {
    // Larger than every stored key: extend the last non-empty block, or
    // start in the middle of an empty file.
    const Address last = calibrator_.LastNonEmptyPageIn(1, num_blocks_);
    if (last == 0) return (num_blocks_ + 1) / 2;
    return MaybeSpillAfter(last, num_blocks_);
  }
  const int leaf = calibrator_.LeafOf(successor_block);
  if (calibrator_.MinKeyOf(leaf) <= key) return successor_block;
  // The key precedes everything in successor_block: it belongs with its
  // predecessor record's block when one exists.
  const Address predecessor_block =
      calibrator_.LastNonEmptyPageIn(1, successor_block - 1);
  if (predecessor_block == 0) return successor_block;
  return MaybeSpillAfter(predecessor_block, successor_block - 1);
}

Address ControlBase::MaybeSpillAfter(Address block, Address limit) const {
  if (!smart_placement_) return block;
  // The new key follows every record in `block`; an empty block right
  // after it (but before `limit`) is an equally legal home. Taking it
  // whenever the insert would push `block` into the warning band g(v,2/3)
  // spares the maintenance machinery an activation.
  const int leaf = calibrator_.LeafOf(block);
  if (!logical_spec_.DensityAtLeast(calibrator_.Count(leaf) + 1,
                                    calibrator_.PagesIn(leaf),
                                    calibrator_.Depth(leaf), kThirds2Of3)) {
    return block;
  }
  if (block + 1 <= limit &&
      calibrator_.Count(calibrator_.LeafOf(block + 1)) == 0) {
    return block + 1;
  }
  return block;
}

StatusOr<Record> ControlBase::Get(Key key) {
  const Address block = BlockPossiblyContaining(key);
  if (block == 0) return Status::NotFound("key absent");
  StatusOr<std::vector<Record>> records = ReadBlock(block);
  DSF_RETURN_IF_ERROR(records.status());
  const auto it =
      std::lower_bound(records->begin(), records->end(), Record{key, 0},
                       RecordKeyLess);
  if (it == records->end() || it->key != key) {
    return Status::NotFound("key absent");
  }
  return *it;
}

bool ControlBase::Contains(Key key) { return Get(key).ok(); }

bool ControlBase::PeekContains(Key key, Value* value) const {
  const Address block = BlockPossiblyContaining(key);
  if (block == 0) return false;
  const int leaf = calibrator_.LeafOf(block);
  const int64_t used = PagesUsed(calibrator_.Count(leaf));
  const Address first = FirstPhysicalPage(block);
  for (int64_t i = 0; i < used; ++i) {
    const Page& page = PeekLogical(first + i);
    if (page.empty() || page.MaxKey() < key) continue;
    if (page.MinKey() > key) return false;
    StatusOr<Record> r = page.Find(key);
    if (!r.ok()) return false;
    if (value != nullptr) *value = r->value;
    return true;
  }
  return false;
}

Status ControlBase::Scan(Key lo, Key hi, std::vector<Record>* out) {
  DSF_CHECK(out != nullptr) << "Scan output vector is null";
  if (lo > hi) return Status::OK();
  Address block = calibrator_.FirstNonEmptyPageWithMaxGE(lo);
  if (block == 0) return Status::OK();
  // Reserve once from the calibrator's aggregates instead of growing the
  // vector by doubling while appending. The touched blocks are [block,
  // last]: `last` is the first block whose max key reaches hi (blocks
  // after it hold only keys > hi), or the end of the file when hi is
  // beyond every stored key. CountInRange over that span is an upper
  // bound on the result size — exact except for the boundary records
  // below lo / above hi in the two edge blocks.
  Address last = calibrator_.FirstNonEmptyPageWithMaxGE(hi);
  if (last == 0) last = num_blocks_;
  out->reserve(out->size() +
               static_cast<size_t>(calibrator_.CountInRange(block, last)));
  for (; block <= num_blocks_; ++block) {
    const int leaf = calibrator_.LeafOf(block);
    if (calibrator_.Count(leaf) == 0) continue;
    if (calibrator_.MinKeyOf(leaf) > hi) break;
    StatusOr<std::vector<Record>> records = ReadBlock(block);
    DSF_RETURN_IF_ERROR(records.status());
    for (const Record& r : *records) {
      if (r.key < lo) continue;
      if (r.key > hi) return Status::OK();
      out->push_back(r);
    }
  }
  return Status::OK();
}

StatusOr<std::vector<Record>> ControlBase::ScanAll() {
  std::vector<Record> out;
  DSF_RETURN_IF_ERROR(Scan(0, std::numeric_limits<Key>::max(), &out));
  return out;
}

Cursor ControlBase::NewCursor(Key start) { return Cursor(this, start); }

StatusOr<int64_t> ControlBase::DeleteRange(Key lo, Key hi) {
  if (lo > hi) return static_cast<int64_t>(0);
  BeginCommand(CommandKind::kRange);
  int64_t removed = 0;
  Address first_touched = 0;
  Address last_touched = 0;
  Address block = calibrator_.FirstNonEmptyPageWithMaxGE(lo);
  while (block != 0 && block <= num_blocks_) {
    const int leaf = calibrator_.LeafOf(block);
    if (calibrator_.Count(leaf) == 0 || calibrator_.MinKeyOf(leaf) > hi) {
      break;
    }
    StatusOr<std::vector<Record>> read = ReadBlock(block);
    if (!read.ok()) {
      if (removed > 0) AfterRangeDeletion(first_touched, last_touched);
      return EndCommand(read.status());
    }
    std::vector<Record>& records = *read;
    const auto begin = std::lower_bound(records.begin(), records.end(),
                                        Record{lo, 0}, RecordKeyLess);
    const auto end = std::upper_bound(records.begin(), records.end(),
                                      Record{hi, 0}, RecordKeyLess);
    if (begin != end) {
      removed += end - begin;
      records.erase(begin, end);
      const Status s = WriteBlock(block, records);
      if (first_touched == 0) first_touched = block;
      last_touched = block;
      if (!s.ok()) {
        AfterRangeDeletion(first_touched, last_touched);
        return EndCommand(s);
      }
    }
    block = calibrator_.FirstNonEmptyPageIn(block + 1, num_blocks_);
  }
  if (removed > 0) AfterRangeDeletion(first_touched, last_touched);
  DSF_RETURN_IF_ERROR(EndCommand());
  return removed;
}

Status ControlBase::InsertBatch(const std::vector<Record>& records) {
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].key >= records[i].key) {
      return Status::InvalidArgument(
          "batch records must be strictly ascending by key");
    }
  }
  return InsertBatchSorted(records.data(), records.data() + records.size());
}

Status ControlBase::InsertBatchSorted(const Record* begin, const Record* end) {
  if (size() + (end - begin) > MaxRecords()) {
    return Status::CapacityExceeded("batch would exceed N = d*M records");
  }
  for (const Record* r = begin; r != end; ++r) {
    DSF_DCHECK(r == begin || (r - 1)->key < r->key)
        << "InsertBatchSorted caller broke the ascending contract at key "
        << r->key;
    DSF_RETURN_IF_ERROR(Insert(*r));
  }
  return Status::OK();
}

Status ControlBase::RedistributeRangeCrashSafe(Address lo, Address hi) {
  DSF_DCHECK(lo >= 1 && hi <= num_blocks_ && lo <= hi)
      << "redistribution range [" << lo << "," << hi << "] invalid";
  const int64_t range_blocks = hi - lo + 1;
  if (m_redistributions_ != nullptr) m_redistributions_->Increment();
  if (m_redistribution_blocks_ != nullptr) {
    m_redistribution_blocks_->Observe(range_blocks);
  }
  const IoStats span_start = file_.stats();
  // Every exit, clean abort or fault, records the redistribution span.
  auto finish = [&](Status s) {
    RecordSpan(SpanKind::kRedistribution, lo, hi, file_.stats() - span_start);
    return s;
  };

  // One scratch buffer for the whole reorganization: the read pass
  // appends into it, both write passes hand page-sized slices straight
  // to the pages, and batched SyncLeaves refresh the calibrator.
  std::vector<Record> all;
  for (Address b = calibrator_.FirstNonEmptyPageIn(lo, hi); b != 0;
       b = calibrator_.FirstNonEmptyPageIn(b + 1, hi)) {
    const Status s = ReadBlockInto(b, &all);
    if (!s.ok()) return finish(s);  // nothing written yet: clean abort
  }
  const int64_t n = static_cast<int64_t>(all.size());
  const int64_t capacity = block_size_ * page_D_;

  // Pass 1 — pack left. Block lo takes the first D# records, lo+1 the
  // next D#, and so on. For every block the packed layout ends at or
  // after the old layout's end (records only move left across blocks),
  // so writing blocks left-to-right — with pages inside each block
  // left-to-right, since intra-block content also moves left — never
  // overwrites a record whose new home has not been written yet.
  {
    std::vector<Calibrator::LeafUpdate> leaves;
    leaves.reserve(static_cast<size_t>(range_blocks));
    Status fault = Status::OK();
    int64_t offset = 0;
    for (Address block = lo; block <= hi; ++block) {
      const int64_t end = std::min(n, offset + capacity);
      const Record* b = all.data() + offset;
      const Record* e = all.data() + end;
      fault = WriteBlockPages(block, b, e, BlockWriteOrder::kForward);
      if (!fault.ok()) break;
      leaves.push_back(MakeLeafUpdate(b, e));
      offset = end;
    }
    if (!fault.ok()) {
      ResyncRangeFromRaw(lo, hi);
      return finish(fault);
    }
    calibrator_.SyncLeaves(lo, leaves);
  }

  // Durability point between the passes: every record's packed copy is
  // on the device before the spread starts destroying packed positions.
  // (A no-op without a storage backend, and under a pool mid-command —
  // nothing has reached the device since the last flush.)
  if (const Status sync = file_.SyncBarrier(); !sync.ok()) {
    return finish(sync);
  }

  // Pass 2 — spread right. The uniform layout never places a record to
  // the left of its packed position, so writing blocks right-to-left —
  // pages inside each block right-to-left, intra-block content moving
  // right as well — duplicates each record into its final home before
  // its packed copy is destroyed.
  {
    std::vector<Calibrator::LeafUpdate> leaves(
        static_cast<size_t>(range_blocks));
    Status fault = Status::OK();
    for (Address block = hi; block >= lo; --block) {
      const int64_t idx = block - lo;
      const Record* b = all.data() + idx * n / range_blocks;
      const Record* e = all.data() + (idx + 1) * n / range_blocks;
      fault = WriteBlockPages(block, b, e, BlockWriteOrder::kBackward);
      if (!fault.ok()) break;
      leaves[static_cast<size_t>(idx)] = MakeLeafUpdate(b, e);
    }
    if (!fault.ok()) {
      ResyncRangeFromRaw(lo, hi);
      return finish(fault);
    }
    calibrator_.SyncLeaves(lo, leaves);
  }
  return finish(Status::OK());
}

Status ControlBase::Compact() {
  BeginCommand(CommandKind::kCompact);
  const Status s = RedistributeRangeCrashSafe(1, num_blocks_);
  if (!s.ok()) {
    return EndCommand(s);
  }
  AfterWholesaleReorganization();
  return EndCommand();
}

ControlBase::PageScan ControlBase::ScanPages() const {
  PageScan scan;
  scan.leaves.resize(static_cast<size_t>(num_blocks_));
  bool have_prev = false;
  Key prev_max = 0;
  for (Address block = 1; block <= num_blocks_; ++block) {
    Calibrator::LeafUpdate& u = scan.leaves[static_cast<size_t>(block - 1)];
    const Address first = FirstPhysicalPage(block);
    bool saw_empty = false;
    bool block_ordered = true;
    for (int64_t i = 0; i < block_size_; ++i) {
      Status read;
      const Page& page = PeekLogical(first + i, &read);
      if (read.IsCorruption()) {
        scan.corrupt.push_back(first + i);
      } else if (!read.ok() && scan.device_error.ok()) {
        scan.device_error = read;
      }
      if (page.empty()) {
        saw_empty = true;
        continue;
      }
      if (saw_empty) {
        if (scan.packing_violations++ == 0) scan.first_unpacked_block = block;
        saw_empty = false;
      }
      if (page.size() > page_D_ && scan.overfull_pages++ == 0) {
        scan.first_overfull_page = first + i;
      }
      if (!page.WellFormed()) block_ordered = false;
      for (const Record& r : page.records()) {
        if (have_prev && r.key <= prev_max) block_ordered = false;
        prev_max = r.key;
        have_prev = true;
        if (u.count == 0 || r.key < u.min_key) u.min_key = r.key;
        if (u.count == 0 || r.key > u.max_key) u.max_key = r.key;
        ++u.count;
      }
    }
    if (!block_ordered) ++scan.misordered_blocks;
  }
  return scan;
}

StatusOr<RepairReport> ControlBase::CheckAndRepair() {
  RepairReport report;

  // Recovery works from device truth. A live pooled file first tries to
  // land its dirty frames (best effort — with an active fault the writes
  // may be refused), then drops the cache entirely: whatever could not
  // be flushed is treated exactly like RAM lost in a crash. Post-crash
  // callers have already called DiscardCache(), making this a no-op.
  if (pool_ != nullptr) {
    (void)pool_->FlushAll();
    pool_->DropAll();
  }
  // Recovery re-establishes per-command durability; any drain window
  // that was open when the fault hit is over.
  defer_flush_ = false;

  // Phase 1 — CHECK. One unaccounted pass over the device pages
  // (recovery is an offline scan, outside the per-command cost model),
  // reading each page once: per-block truth, crash damage (overfull
  // pages, blocks not packed into a page prefix, broken global order or
  // torn-shift duplicates), stale calibrator leaves, and torn slots.
  const PageScan scan = ScanPages();
  // A device that could not be read says nothing about the slot, so
  // nothing is judged or rewritten on its word.
  if (!scan.device_error.ok()) return scan.device_error;
  report.blocks_scanned = num_blocks_;
  report.overfull_pages = scan.overfull_pages;
  report.packing_violations = scan.packing_violations;
  report.misordered_blocks = scan.misordered_blocks;
  for (Address block = 1; block <= num_blocks_; ++block) {
    const Calibrator::LeafUpdate& u =
        scan.leaves[static_cast<size_t>(block - 1)];
    const int leaf = calibrator_.LeafOf(block);
    if (calibrator_.Count(leaf) != u.count ||
        (u.count > 0 && (calibrator_.MinKeyOf(leaf) != u.min_key ||
                         calibrator_.MaxKeyOf(leaf) != u.max_key))) {
      ++report.calibrator_resyncs;
    }
  }
  // Quarantine torn slots durably: rewrite each as the empty page it
  // read as, so the next open reads a valid slot instead of tripping on
  // the same CRC again — the cheap path below rewrites nothing, so
  // detection itself must persist the verdict.
  report.corrupt_pages = scan.corrupt;
  for (const Address a : scan.corrupt) {
    // lint:allow(raw-page-io): quarantine is offline recovery I/O.
    DSF_RETURN_IF_ERROR(file_.RawWrite(a, {}));
  }

  if (scan.content_clean()) {
    // Cheap path: the records on the device are intact; only in-memory
    // state (rank counters, fence keys, warning flags) needs rebuilding.
    // The scan verified I2/I3/I5 and the leaves now mirror it, so only
    // the page-free checks remain.
    calibrator_.SyncLeaves(1, scan.leaves);
    AfterWholesaleReorganization();
    report.warning_state_rebuilt = true;
    if (ValidateState().ok()) {
      // Nothing was rewritten, but the flush above or the quarantine
      // may have left device writes to make durable.
      DSF_RETURN_IF_ERROR(file_.SyncBarrier());
      return report;
    }
    // Ordered and duplicate-free but structurally unacceptable (e.g. a
    // crash mid-redistribution left a packed prefix that breaches
    // BALANCE(d,D)): fall through to the wholesale rewrite.
  }

  // Phase 2 — wholesale REPAIR. Gather every surviving record in address
  // order, sort stably by key and drop adjacent duplicates, keeping the
  // first copy. The write-ordering invariants (dest-before-source shifts,
  // pack-then-spread redistribution; docs/FAULTS.md) guarantee duplicate
  // copies of a key carry identical payloads, so which copy survives is
  // immaterial. Then rewrite at uniform density — Theorem 5.5's initial
  // condition — with raw writes: recovery I/O is offline and unaccounted.
  std::vector<Record> all;
  for (Address p = 1; p <= file_.num_pages(); ++p) {
    // Corrupt slots were quarantined above, so any failure here is new
    // and the rewrite below must not drop the page's records.
    Status read;
    const Page& page = file_.Peek(p, &read);
    DSF_RETURN_IF_ERROR(read);
    all.insert(all.end(), page.records().begin(), page.records().end());
  }
  std::stable_sort(all.begin(), all.end(), RecordKeyLess);
  const auto unique_end =
      std::unique(all.begin(), all.end(), [](const Record& a, const Record& b) {
        return a.key == b.key;
      });
  report.duplicate_records_dropped = all.end() - unique_end;
  all.erase(unique_end, all.end());

  DSF_RETURN_IF_ERROR(LayOutBlocks(UniformSlices(all)));
  AfterWholesaleReorganization();
  report.rewrote_file = true;
  report.warning_state_rebuilt = true;
  DSF_RETURN_IF_ERROR(ValidateInvariants());
  // The repaired image must be durable before the file serves commands
  // again — a second crash must reopen to the repaired state, not to
  // the damage this pass just fixed.
  DSF_RETURN_IF_ERROR(file_.SyncBarrier());
  return report;
}

double ControlBase::ScanEfficiency() const {
  int64_t pages_touched = 0;
  for (Address b = 1; b <= num_blocks_; ++b) {
    pages_touched += PagesUsed(calibrator_.Count(calibrator_.LeafOf(b)));
  }
  if (pages_touched == 0) return 0.0;
  return static_cast<double>(size()) / static_cast<double>(pages_touched);
}

void ControlBase::SetObservability(MetricsRegistry* metrics,
                                   CommandTracer* tracer,
                                   BoundCertifier* certifier,
                                   const std::string& label) {
  metrics_ = metrics;
  tracer_ = tracer;
  certifier_ = certifier;
  metrics_label_ = label;
  m_commands_ = nullptr;
  m_command_accesses_ = nullptr;
  m_command_sim_ns_ = nullptr;
  m_redistributions_ = nullptr;
  m_redistribution_blocks_ = nullptr;
  if (metrics != nullptr) {
    m_commands_ = metrics->FindOrCreateCounter(kMetricCommands, label);
    m_command_accesses_ =
        metrics->FindOrCreateHistogram(kMetricCommandAccesses, label);
    m_command_sim_ns_ =
        metrics->FindOrCreateHistogram(kMetricCommandSimNs, label);
    m_redistributions_ =
        metrics->FindOrCreateCounter(kMetricRedistributions, label);
    m_redistribution_blocks_ =
        metrics->FindOrCreateHistogram(kMetricRedistributionBlocks, label);
  }
  if (certifier != nullptr) {
    certifier->set_violations_counter(
        metrics == nullptr
            ? nullptr
            : metrics->FindOrCreateCounter(kMetricBoundViolations, label));
  }
  if (pool_ != nullptr) {
    if (metrics == nullptr) {
      pool_->SetMetrics(nullptr, nullptr, nullptr, nullptr);
    } else {
      pool_->SetMetrics(
          metrics->FindOrCreateCounter(kMetricPoolHits, label),
          metrics->FindOrCreateCounter(kMetricPoolMisses, label),
          metrics->FindOrCreateCounter(kMetricPoolWritebacks, label),
          metrics->FindOrCreateHistogram(kMetricPoolFlushRunLength, label));
    }
  }
}

void ControlBase::RecordSpan(SpanKind kind, int64_t a, int64_t b,
                             const IoStats& io) {
  if (tracer_ == nullptr) return;
  SpanEvent event;
  event.kind = kind;
  event.seq = command_seq_;
  event.a = a;
  event.b = b;
  event.io = io;
  tracer_->Record(event);
}

void ControlBase::BeginCommand(CommandKind kind) {
  DSF_DCHECK(!in_command_) << "nested command";
  in_command_ = true;
  command_kind_ = kind;
  command_seq_ = command_stats_.commands;
  command_start_stats_ = file_.stats();
}

Status ControlBase::EndCommand() {
  DSF_DCHECK(in_command_) << "EndCommand without BeginCommand";
  in_command_ = false;
  // Flush before the cost snapshot so write-back I/O is charged to the
  // command that dirtied the frames. Command-granularity durability: on
  // return from a successful command, the device holds it in full, so a
  // crash leaves at most the in-flight command unflushed.
  Status flush = Status::OK();
  if (pool_ != nullptr && !defer_flush_) {
    const IoStats pre_flush = file_.stats();
    const BufferPool::Stats pre_pool = pool_->stats();
    flush = pool_->FlushAll();
    if (tracer_ != nullptr) {
      const BufferPool::Stats post_pool = pool_->stats();
      RecordSpan(SpanKind::kFlush,
                 post_pool.flushed_pages - pre_pool.flushed_pages,
                 post_pool.flush_runs - pre_pool.flush_runs,
                 file_.stats() - pre_flush);
    }
  }
  // Command-granularity durability extends to the storage backend: the
  // device write-back above (or the command's direct writes) must be
  // persistent before the command reports success. During a deferred
  // window the barrier moves to EndFlushDeferral with the flush.
  if (!defer_flush_) {
    const Status sync = file_.SyncBarrier();
    if (flush.ok()) flush = sync;
  }
  const IoStats delta = file_.stats() - command_start_stats_;
  const int64_t used = delta.TotalAccesses();
  ++command_stats_.commands;
  command_stats_.last_command_accesses = used;
  command_stats_.max_command_accesses =
      std::max(command_stats_.max_command_accesses, used);
  command_stats_.total_accesses += used;
  if (m_commands_ != nullptr) m_commands_->Increment();
  if (m_command_accesses_ != nullptr) m_command_accesses_->Observe(used);
  if (m_command_sim_ns_ != nullptr) {
    m_command_sim_ns_->Observe(delta.sim_elapsed_ns);
  }
  // The certifier watches *logical* accesses: what the algorithm asked
  // for, independent of cache absorption (see obs/bound_certifier.h).
  if (certifier_ != nullptr) {
    certifier_->Observe(command_kind_, delta.TotalLogical());
  }
  RecordSpan(SpanKind::kCommand, static_cast<int64_t>(command_kind_),
             flush.ok() ? 1 : 0, delta);
  return flush;
}

Status ControlBase::EndCommand(const Status& command_status) {
  const Status flush = EndCommand();
  if (!command_status.ok()) return command_status;
  return flush;
}

Status ControlBase::EndFlushDeferral() {
  defer_flush_ = false;
  if (pool_ == nullptr) return file_.SyncBarrier();
  // Same flush-and-trace shape as EndCommand's per-command flush, run
  // once for the whole deferred window.
  const IoStats pre_flush = file_.stats();
  const BufferPool::Stats pre_pool = pool_->stats();
  Status flush = pool_->FlushAll();
  if (tracer_ != nullptr) {
    const BufferPool::Stats post_pool = pool_->stats();
    RecordSpan(SpanKind::kFlush,
               post_pool.flushed_pages - pre_pool.flushed_pages,
               post_pool.flush_runs - pre_pool.flush_runs,
               file_.stats() - pre_flush);
  }
  const Status sync = file_.SyncBarrier();
  if (flush.ok()) flush = sync;
  return flush;
}

void ControlBase::ResetCommandStats() { command_stats_ = CommandStats(); }

Status ControlBase::ValidateBalance() const {
  for (int v = 0; v < calibrator_.node_count(); ++v) {
    if (!logical_spec_.DensityAtMost(calibrator_.Count(v),
                                     calibrator_.PagesIn(v),
                                     calibrator_.Depth(v), kThirds1)) {
      return Status::Corruption(
          "BALANCE(d,D) violated at node " + std::to_string(v) + ": N=" +
          std::to_string(calibrator_.Count(v)) + " over " +
          std::to_string(calibrator_.PagesIn(v)) + " blocks at depth " +
          std::to_string(calibrator_.Depth(v)));
    }
  }
  return Status::OK();
}

Status ControlBase::ValidateInvariants() const {
  // One read of every logical page. Pooled, the logical view (dirty
  // frames over device pages) is what must hold; the device may lag by
  // the unflushed tail of the in-flight command.
  const PageScan scan = ScanPages();
  if (!scan.device_error.ok()) return scan.device_error;
  if (!scan.corrupt.empty()) {
    return Status::Corruption("page " + std::to_string(scan.corrupt[0]) +
                              " fails its integrity check");
  }
  // I2: no physical page above D records (outside a command).
  if (scan.overfull_pages > 0) {
    return Status::Corruption("page " +
                              std::to_string(scan.first_overfull_page) +
                              " holds more than D records");
  }
  // I3: global key order.
  if (scan.misordered_blocks > 0) {
    return Status::Corruption("records out of sequential order");
  }
  // I5: each block is packed into a prefix of its pages, and the
  // calibrator leaves mirror the true block contents.
  if (scan.packing_violations > 0) {
    return Status::Corruption("block " +
                              std::to_string(scan.first_unpacked_block) +
                              " is not prefix-packed");
  }
  for (Address block = 1; block <= num_blocks_; ++block) {
    const Calibrator::LeafUpdate& u =
        scan.leaves[static_cast<size_t>(block - 1)];
    const int leaf = calibrator_.LeafOf(block);
    if (calibrator_.Count(leaf) != u.count) {
      return Status::Corruption("rank counter stale for block " +
                                std::to_string(block));
    }
    if (u.count > 0 && (calibrator_.MinKeyOf(leaf) != u.min_key ||
                        calibrator_.MaxKeyOf(leaf) != u.max_key)) {
      return Status::Corruption("fence keys stale for block " +
                                std::to_string(block));
    }
  }
  return ValidateState();
}

Status ControlBase::ValidateState() const {
  // I1: cardinality bound.
  if (calibrator_.TotalRecords() > MaxRecords()) {
    return Status::Corruption("file exceeds N = d*M records");
  }
  return calibrator_.ValidateAggregates();
}

std::vector<std::span<const Record>> ControlBase::UniformSlices(
    const std::vector<Record>& records) const {
  const int64_t n = static_cast<int64_t>(records.size());
  std::vector<std::span<const Record>> slices;
  slices.reserve(static_cast<size_t>(num_blocks_));
  int64_t offset = 0;
  for (Address block = 1; block <= num_blocks_; ++block) {
    const int64_t end = block * n / num_blocks_;
    slices.emplace_back(records.data() + offset,
                        static_cast<size_t>(end - offset));
    offset = end;
  }
  return slices;
}

Status ControlBase::LayOutBlocks(
    const std::vector<std::span<const Record>>& slices) {
  std::vector<Calibrator::LeafUpdate> leaves;
  leaves.reserve(slices.size());
  for (Address block = 1; block <= num_blocks_; ++block) {
    std::span<const Record> rest = slices[static_cast<size_t>(block - 1)];
    leaves.push_back(MakeLeafUpdate(rest.data(), rest.data() + rest.size()));
    const Address first = FirstPhysicalPage(block);
    for (int64_t i = 0; i < block_size_; ++i) {
      const size_t take =
          std::min(static_cast<size_t>(page_D_), rest.size());
      // lint:allow(raw-page-io): layout is setup or offline repair,
      // unaccounted per the accounting rule in storage/page_file.h.
      DSF_RETURN_IF_ERROR(file_.RawWrite(first + i, rest.first(take)));
      rest = rest.subspan(take);
    }
  }
  calibrator_.SyncLeaves(1, leaves);
  return Status::OK();
}

Status ControlBase::Load(const std::vector<std::span<const Record>>& slices) {
  // The load writes the device directly; stale cached frames would
  // shadow it.
  DiscardCache();
  DSF_RETURN_IF_ERROR(LayOutBlocks(slices));
  // Make the load durable before handing the file to commands; the
  // stats reset below keeps setup I/O out of the measured counters.
  DSF_RETURN_IF_ERROR(file_.SyncBarrier());
  file_.ResetStats();
  ResetCommandStats();
  AfterBulkLoad();
  return Status::OK();
}

Status ControlBase::BulkLoad(const std::vector<Record>& records) {
  if (static_cast<int64_t>(records.size()) > MaxRecords()) {
    return Status::CapacityExceeded("bulk load exceeds N = d*M records");
  }
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].key >= records[i].key) {
      return Status::InvalidArgument(
          "bulk load records must be strictly ascending by key");
    }
  }
  return Load(UniformSlices(records));
}

Status ControlBase::LoadLayout(const std::vector<std::vector<Record>>& per_block) {
  if (static_cast<int64_t>(per_block.size()) != num_blocks_) {
    return Status::InvalidArgument("LoadLayout needs one entry per block");
  }
  int64_t total = 0;
  bool have_prev = false;
  Key prev = 0;
  for (const auto& block : per_block) {
    if (static_cast<int64_t>(block.size()) > block_size_ * page_D_) {
      return Status::InvalidArgument("block exceeds D# records");
    }
    total += static_cast<int64_t>(block.size());
    for (const Record& r : block) {
      if (have_prev && r.key <= prev) {
        return Status::InvalidArgument("LoadLayout keys must ascend");
      }
      prev = r.key;
      have_prev = true;
    }
  }
  if (total > MaxRecords()) {
    return Status::CapacityExceeded("LoadLayout exceeds N = d*M records");
  }
  return Load(std::vector<std::span<const Record>>(per_block.begin(),
                                                   per_block.end()));
}

}  // namespace dsf
