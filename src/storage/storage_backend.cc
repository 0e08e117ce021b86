#include "storage/storage_backend.h"

namespace dsf {

Status StorageBackend::WriteRun(
    Address first, std::span<const std::span<const Record>> pages) {
  Page page(page_capacity());
  for (size_t i = 0; i < pages.size(); ++i) {
    page.Clear();
    page.AppendHigh(pages[i].data(), pages[i].data() + pages[i].size());
    DSF_RETURN_IF_ERROR(WritePage(first + static_cast<Address>(i), page));
  }
  return Status::OK();
}

void StorageBackend::ReadRun(Address first, std::span<Page> out,
                             std::span<Status> status) {
  for (size_t i = 0; i < out.size(); ++i) {
    status[i] = ReadPage(first + static_cast<Address>(i), &out[i]);
  }
}

MemoryBackend::MemoryBackend(int64_t num_pages, int64_t page_capacity)
    : num_pages_(num_pages), page_capacity_(page_capacity) {
  image_.assign(static_cast<size_t>(num_pages), Page(page_capacity));
}

Status MemoryBackend::WritePage(Address address, const Page& page) {
  if (address < 1 || address > num_pages_) {
    return Status::OutOfRange("backend write address " +
                              std::to_string(address) + " outside [1," +
                              std::to_string(num_pages_) + "]");
  }
  Page& slot = image_[static_cast<size_t>(address - 1)];
  slot.Clear();
  slot.AppendHigh(page.records());
  return Status::OK();
}

Status MemoryBackend::ReadPage(Address address, Page* out) {
  if (address < 1 || address > num_pages_) {
    return Status::OutOfRange("backend read address " +
                              std::to_string(address) + " outside [1," +
                              std::to_string(num_pages_) + "]");
  }
  *out = image_[static_cast<size_t>(address - 1)];
  return Status::OK();
}

}  // namespace dsf
