// dsf_shell: a tiny interactive console for exploring a dense file.
//
//   ./build/examples/dsf_shell [M d D]
//
// Commands (one per line on stdin):
//   ins <key> [value]    insert a record
//   del <key>            delete a record
//   get <key>            point lookup
//   scan <lo> <hi>       stream retrieval
//   fill <n>             insert n random records
//   viz                  page-occupancy sketch + warning states
//   stats                I/O and command statistics
//   check                run the full invariant battery
//   compact              reorganize to uniform density
//   save <dir>           write the records to a durable file pair in dir
//   help                 this text
//   quit                 exit
//
// Piping a script works too:  echo "fill 500
// viz" | ./build/examples/dsf_shell

#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "core/control2.h"
#include "core/dense_file.h"
#include "storage/file_backend.h"
#include "util/random.h"

namespace {

void PrintHelp() {
  std::cout << "commands: ins del get scan fill viz stats check compact "
               "save help quit\n";
}

// One character per page group: ' .:+*#@' by occupancy against d.
void Visualize(dsf::DenseFile& file) {
  const dsf::Calibrator& cal = file.control().calibrator();
  const int64_t blocks = file.control().num_blocks();
  const int64_t groups = std::min<int64_t>(64, blocks);
  std::string occupancy;
  std::string warnings;
  const dsf::Control2* c2 =
      file.PolicyName() == "CONTROL2"
          ? static_cast<const dsf::Control2*>(&file.control())
          : nullptr;
  for (int64_t g = 0; g < groups; ++g) {
    const int64_t lo = g * blocks / groups + 1;
    const int64_t hi = (g + 1) * blocks / groups;
    int64_t count = 0;
    bool warn = false;
    for (int64_t b = lo; b <= hi; ++b) {
      const int leaf = cal.LeafOf(b);
      count += cal.Count(leaf);
      if (c2 != nullptr) warn |= c2->warning(leaf);
    }
    const double fill =
        static_cast<double>(count) /
        (static_cast<double>(hi - lo + 1) *
         static_cast<double>(file.capacity()) /
         static_cast<double>(blocks));
    const char* levels = " .:+*#@";
    occupancy += levels[std::min<int64_t>(6, static_cast<int64_t>(fill * 7))];
    warnings += warn ? '!' : ' ';
  }
  std::cout << "occupancy [" << occupancy << "]\n";
  if (c2 != nullptr) {
    std::cout << "warnings  [" << warnings << "]  (leaf level)\n";
  }
  std::cout << "records " << file.size() << "/" << file.capacity()
            << ", packing " << file.ScanEfficiency() << " per page\n";
}

// Bulk-loads the file's records into a FileBackend pair under `dir`
// (created if missing, replaced if present), then reopens it with
// DenseFile::Open and checks that every record came back.
dsf::Status SaveToDirectory(const dsf::DenseFile& file,
                            const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return dsf::Status::IoError("cannot create " + dir + ": " +
                                      ec.message());
  dsf::StatusOr<std::vector<dsf::Record>> records = file.ScanAll();
  if (!records.ok()) return records.status();
  dsf::FileBackend::Options backend;
  backend.directory = dir;
  dsf::DenseFile::Options options = file.options();
  options.backend_factory = dsf::FileBackend::CreateFactory(backend);
  {
    dsf::StatusOr<std::unique_ptr<dsf::DenseFile>> copy =
        dsf::DenseFile::Create(options);
    if (!copy.ok()) return copy.status();
    DSF_RETURN_IF_ERROR((*copy)->BulkLoad(*records));
    DSF_RETURN_IF_ERROR((*copy)->Flush());
  }
  options.backend_factory = dsf::FileBackend::OpenFactory(backend);
  dsf::StatusOr<std::unique_ptr<dsf::DenseFile>> reopened =
      dsf::DenseFile::Open(options);
  if (!reopened.ok()) return reopened.status();
  dsf::StatusOr<std::vector<dsf::Record>> back = (*reopened)->ScanAll();
  if (!back.ok()) return back.status();
  if (*back != *records) {
    return dsf::Status::Corruption("reopened " + dir +
                                   " does not match the saved records");
  }
  std::cout << "saved " << records->size() << " records to " << dir
            << " (reopened with DenseFile::Open)\n";
  return dsf::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  dsf::DenseFile::Options options;
  options.num_pages = argc > 3 ? std::stoll(argv[1]) : 256;
  options.d = argc > 3 ? std::stoll(argv[2]) : 8;
  options.D = argc > 3 ? std::stoll(argv[3]) : 8 + 33;
  auto file_or = dsf::DenseFile::Create(options);
  if (!file_or.ok()) {
    std::cerr << "create failed: " << file_or.status() << "\n";
    return 1;
  }
  std::unique_ptr<dsf::DenseFile> file = std::move(*file_or);
  std::cout << "dsf shell — M=" << file->num_pages() << " d=" << options.d
            << " D=" << options.D << " policy=" << file->PolicyName()
            << " (type 'help')\n";

  dsf::Rng rng(1);
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "ins") {
      dsf::Key k;
      dsf::Value v = 0;
      if (!(in >> k)) { PrintHelp(); continue; }
      in >> v;
      std::cout << file->Insert(k, v) << "\n";
    } else if (cmd == "del") {
      dsf::Key k;
      if (!(in >> k)) { PrintHelp(); continue; }
      std::cout << file->Delete(k) << "\n";
    } else if (cmd == "get") {
      dsf::Key k;
      if (!(in >> k)) { PrintHelp(); continue; }
      auto v = file->Get(k);
      if (v.ok()) {
        std::cout << "value " << *v << "\n";
      } else {
        std::cout << v.status() << "\n";
      }
    } else if (cmd == "scan") {
      dsf::Key lo, hi;
      if (!(in >> lo >> hi)) { PrintHelp(); continue; }
      std::vector<dsf::Record> out;
      const dsf::Status s = file->Scan(lo, hi, &out);
      if (!s.ok()) { std::cout << s << "\n"; continue; }
      std::cout << out.size() << " records:";
      for (size_t i = 0; i < out.size() && i < 20; ++i) {
        std::cout << " " << out[i].key;
      }
      if (out.size() > 20) std::cout << " ...";
      std::cout << "\n";
    } else if (cmd == "fill") {
      int64_t n = 0;
      if (!(in >> n)) { PrintHelp(); continue; }
      int64_t done = 0;
      while (done < n && file->size() < file->capacity()) {
        const dsf::Key k = rng.Uniform(1u << 30) + 1;
        if (file->Insert(k, k).ok()) ++done;
      }
      std::cout << "inserted " << done << "\n";
    } else if (cmd == "viz") {
      Visualize(*file);
    } else if (cmd == "stats") {
      std::cout << "io: " << file->io_stats().ToString() << "\n";
      std::cout << "commands: " << file->command_stats().commands
                << ", mean "
                << file->command_stats().MeanAccessesPerCommand()
                << ", worst "
                << file->command_stats().max_command_accesses << "\n";
    } else if (cmd == "check") {
      std::cout << file->ValidateInvariants() << "\n";
    } else if (cmd == "compact") {
      std::cout << file->Compact() << "\n";
    } else if (cmd == "save") {
      std::string dir;
      if (!(in >> dir)) { PrintHelp(); continue; }
      std::cout << SaveToDirectory(*file, dir) << "\n";
    } else {
      PrintHelp();
    }
  }
  return 0;
}
