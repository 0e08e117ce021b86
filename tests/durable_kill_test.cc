// Kill-test sweep against the durable FileBackend.
//
// The crash_recovery_fuzz_test sweep proves recovery under *simulated*
// crashes (fault injection cuts off the in-memory device). This suite
// proves the same contract against the real OS-file backend with a real
// dead process: a forked child replays a seeded workload with
// FileBackend::Options::kill_after_writes = k, so the child SIGKILLs
// itself at the k-th physical pwrite boundary — no destructors, no
// flush-on-exit, exactly what a power cut leaves behind (modulo the
// kernel page cache, which survives process death; fdatasync ordering is
// what the barrier placement is for). The parent then reopens the file
// pair with DenseFile::Open (which runs CheckAndRepair), aligns the
// single ambiguous in-flight command against the repaired file, verifies
// contents match a reference model, and replays the rest of the trace in
// lockstep.
//
// Kill points are scheduled at write counts recorded from a clean run:
// every device write is issued before EndCommand's fdatasync, so the
// cumulative pwrite count at each op boundary is exact and deterministic.
// Points below W0 (the BulkLoad watermark) are skipped — a file killed
// mid-bulk-load never promised anything; the per-command crash contract
// starts at the first command.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/auditor.h"
#include "core/dense_file.h"
#include "gtest/gtest.h"
#include "storage/file_backend.h"
#include "util/random.h"
#include "util/status.h"
#include "util/temp_dir.h"
#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf {
namespace {

struct Config {
  DenseFile::Policy policy;
  int64_t cache_frames;
  bool direct_io;
};

DenseFile::Options FileOptions(const Config& config) {
  DenseFile::Options options;
  options.num_pages = 32;
  options.d = 4;
  options.D = 20;
  options.policy = config.policy;
  options.cache_frames = config.cache_frames;
  options.audit_every_command = true;
  return options;
}

FileBackend::Options BackendOptions(const std::string& dir,
                                    const Config& config,
                                    int64_t kill_after_writes = -1) {
  FileBackend::Options fb;
  fb.directory = dir;
  fb.direct_io = config.direct_io;
  fb.kill_after_writes = kill_after_writes;
  return fb;
}

Status ApplyToFile(DenseFile& file, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      return file.Insert(op.record);
    case Op::Kind::kDelete:
      return file.Delete(op.record.key);
    case Op::Kind::kGet:
      return file.Get(op.record.key).status();
    case Op::Kind::kScan: {
      std::vector<Record> out;
      return file.Scan(op.record.key, op.scan_hi, &out);
    }
  }
  return Status::OK();
}

Status ApplyToModel(ReferenceModel& model, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      return model.Insert(op.record);
    case Op::Kind::kDelete:
      return model.Delete(op.record.key);
    case Op::Kind::kGet:
      return model.Get(op.record.key).status();
    case Op::Kind::kScan:
      return Status::OK();
  }
  return Status::OK();
}

// The killed command may or may not have reached the device; both
// outcomes are valid. Resolve by asking the repaired file.
void AlignModelAfterKill(const Op& op, DenseFile& file,
                         ReferenceModel& model) {
  if (op.kind == Op::Kind::kInsert) {
    if (file.Contains(op.record.key) && !model.Contains(op.record.key)) {
      ASSERT_TRUE(model.Insert(op.record).ok());
    }
  } else if (op.kind == Op::Kind::kDelete) {
    if (!file.Contains(op.record.key) && model.Contains(op.record.key)) {
      ASSERT_TRUE(model.Delete(op.record.key).ok());
    }
  }
}

struct Workload {
  std::vector<Record> initial;
  Trace trace;
};

Workload MakeWorkload() {
  Workload w;
  // Same shape as the simulated crash sweep: a wide-stride load, an
  // ascending burst that overflows one block and forces multi-page
  // maintenance (the writes worth killing inside), then a uniform mix.
  Rng rng(20260807);
  w.initial = MakeAscendingRecords(80, 30, 30);
  w.trace = AscendingInserts(24, 601, 1);
  const Trace tail = UniformMix(60, 0.35, 0.55, 2700, rng);
  w.trace.insert(w.trace.end(), tail.begin(), tail.end());
  return w;
}

// Clean run: cumulative physical pwrites at BulkLoad and at every op
// boundary. Exact because every device write of a command is issued, and
// synced, before EndCommand returns.
struct WriteSchedule {
  int64_t after_load = 0;              // W0
  std::vector<int64_t> after_op;       // cumulative, one per trace op
  int64_t total() const { return after_op.empty() ? after_load
                                                  : after_op.back(); }
};

WriteSchedule CleanRunSchedule(const Config& config, const Workload& w,
                               const std::string& dir) {
  WriteSchedule schedule;
  DenseFile::Options options = FileOptions(config);
  options.backend_factory =
      FileBackend::CreateFactory(BackendOptions(dir, config));
  std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
  const FileBackend* backend =
      static_cast<const FileBackend*>(file->storage_backend());
  EXPECT_TRUE(file->BulkLoad(w.initial).ok());
  schedule.after_load = backend->stats().pwrites;
  for (const Op& op : w.trace) {
    IgnoreStatus(ApplyToFile(*file, op));
    schedule.after_op.push_back(backend->stats().pwrites);
  }
  return schedule;
}

// Child half of one kill point. Never returns through gtest: _exit(0) on
// clean completion, SIGKILL (from inside WritePage) at the scheduled
// write, _exit(3) on unexpected setup failure.
[[noreturn]] void ChildReplay(const Config& config, const Workload& w,
                              const std::string& dir, int64_t kill_k) {
  DenseFile::Options options = FileOptions(config);
  options.backend_factory =
      FileBackend::CreateFactory(BackendOptions(dir, config, kill_k));
  StatusOr<std::unique_ptr<DenseFile>> created = DenseFile::Create(options);
  if (!created.ok()) ::_exit(3);
  DenseFile& file = **created;
  if (!file.BulkLoad(w.initial).ok()) ::_exit(3);
  for (const Op& op : w.trace) IgnoreStatus(ApplyToFile(file, op));
  ::_exit(0);
}

// Parent half: wait for the child's death, reopen + repair, resolve the
// ambiguous command, then finish the trace in lockstep with the model.
void VerifyAfterKill(const Config& config, const Workload& w,
                     const WriteSchedule& schedule, const std::string& dir,
                     int64_t kill_k, pid_t child, bool* kill_fired) {
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  if (WIFSIGNALED(wstatus)) {
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL) << "k=" << kill_k;
    *kill_fired = true;
  } else {
    // k at/after the last write: the child ran out of trace first.
    ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
        << "k=" << kill_k << " wstatus=" << wstatus;
    ASSERT_GE(kill_k, schedule.total());
  }

  DenseFile::Options options = FileOptions(config);
  options.backend_factory =
      FileBackend::OpenFactory(BackendOptions(dir, config));
  StatusOr<std::unique_ptr<DenseFile>> reopened = DenseFile::Open(options);
  ASSERT_TRUE(reopened.ok()) << "k=" << kill_k << ": " << reopened.status();
  DenseFile& file = **reopened;
  // SIGKILL between two pwrites never tears a page: every completed
  // pwrite is all-or-nothing in the page cache. (Torn-page handling is
  // covered by storage_backend_test's CRC corruption cases.)
  EXPECT_TRUE(file.corrupt_pages_at_open().empty()) << "k=" << kill_k;
  ASSERT_TRUE(file.ValidateInvariants().ok()) << "k=" << kill_k;

  // Ops whose write watermark is <= k were fully durable before the kill
  // (their EndCommand flush completed); the first op past the watermark
  // is the single ambiguous command.
  ReferenceModel model(file.capacity());
  ASSERT_TRUE(model.Load(w.initial).ok());
  size_t resume = w.trace.size();
  for (size_t i = 0; i < w.trace.size(); ++i) {
    if (schedule.after_op[i] > kill_k) {
      resume = i;
      break;
    }
    IgnoreStatus(ApplyToModel(model, w.trace[i]));
  }
  if (resume < w.trace.size()) {
    AlignModelAfterKill(w.trace[resume], file, model);
    if (::testing::Test::HasFatalFailure()) return;
    ++resume;
  }
  ASSERT_EQ(*file.ScanAll(), model.ScanAll())
      << "k=" << kill_k << " diverged after repair (resume op " << resume
      << ")";

  // The survivor must keep honoring the contract: replay the unreached
  // tail in lockstep.
  for (size_t i = resume; i < w.trace.size(); ++i) {
    const Status file_status = ApplyToFile(file, w.trace[i]);
    const Status model_status = ApplyToModel(model, w.trace[i]);
    ASSERT_EQ(file_status.code(), model_status.code())
        << "k=" << kill_k << " tail op=" << i << " file=" << file_status
        << " model=" << model_status;
  }
  ASSERT_EQ(*file.ScanAll(), model.ScanAll()) << "k=" << kill_k;
  ASSERT_TRUE(file.Audit().ok()) << "k=" << kill_k;
}

class DurableKillSweep : public ::testing::TestWithParam<Config> {};

TEST_P(DurableKillSweep, EveryScheduledKillPointRecovers) {
  const Config config = GetParam();
  const Workload w = MakeWorkload();

  WriteSchedule schedule;
  {
    ScopedTempDir dir("dsf-kill-clean");
    schedule = CleanRunSchedule(config, w, dir.path());
  }
  ASSERT_GT(schedule.total(), schedule.after_load)
      << "trace produced no post-load writes";

  // ~30 points per config, spread across (W0, T], always including the
  // first post-load write and the clean-completion boundary. Four-plus
  // configs x 30 comfortably clears the 100-point acceptance floor.
  const int64_t first = schedule.after_load;
  const int64_t last = schedule.total();
  const int64_t stride = std::max<int64_t>(1, (last - first) / 28);
  std::vector<int64_t> kill_points;
  for (int64_t k = first; k < last; k += stride) kill_points.push_back(k);
  kill_points.push_back(last);  // child finishes; reopen of a clean close

  int64_t points_run = 0;
  bool kill_fired = false;
  for (const int64_t k : kill_points) {
    ScopedTempDir dir("dsf-kill");
    const pid_t child = ::fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
      ChildReplay(config, w, dir.path(), k);  // never returns
    }
    VerifyAfterKill(config, w, schedule, dir.path(), k, child, &kill_fired);
    if (HasFatalFailure()) return;
    ++points_run;
  }
  EXPECT_TRUE(kill_fired);
  EXPECT_GE(points_run, 26);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DurableKillSweep,
    ::testing::Values(Config{DenseFile::Policy::kControl2, 0, false},
                      Config{DenseFile::Policy::kControl1, 0, false},
                      Config{DenseFile::Policy::kLocalShift, 0, false},
                      Config{DenseFile::Policy::kControl2, 4, false},
                      Config{DenseFile::Policy::kControl2, 0, true}),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      std::string name;
      switch (param_info.param.policy) {
        case DenseFile::Policy::kControl2: name = "Control2"; break;
        case DenseFile::Policy::kControl1: name = "Control1"; break;
        case DenseFile::Policy::kLocalShift: name = "LocalShift"; break;
      }
      name += param_info.param.cache_frames == 0
                  ? "Direct"
                  : "Pool" + std::to_string(param_info.param.cache_frames);
      if (param_info.param.direct_io) name += "Odirect";
      return name;
    });

// Determinism guard for the schedule itself: two clean runs against two
// fresh directories must produce identical write watermarks, or the
// sweep's op attribution is fiction.
TEST(DurableKillSchedule, CleanRunWritesAreDeterministic) {
  const Config config{DenseFile::Policy::kControl2, 0, false};
  const Workload w = MakeWorkload();
  ScopedTempDir a("dsf-sched-a");
  ScopedTempDir b("dsf-sched-b");
  const WriteSchedule sa = CleanRunSchedule(config, w, a.path());
  const WriteSchedule sb = CleanRunSchedule(config, w, b.path());
  EXPECT_EQ(sa.after_load, sb.after_load);
  EXPECT_EQ(sa.after_op, sb.after_op);
}

}  // namespace
}  // namespace dsf
