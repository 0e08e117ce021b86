// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding the durable on-disk page format (storage/file_backend).
//
// The Castagnoli polynomial is the storage-industry choice (iSCSI, ext4,
// Btrfs, LevelDB/RocksDB block format) because its error-detection
// properties at 4KB block sizes beat CRC32's, and hardware assists exist
// on most ISAs. Crc32cExtend picks its kernel once, at first use: on
// x86-64 CPUs with SSE4.2 the crc32 instruction, eight bytes at a time;
// everywhere else the portable slice-by-one table walk. Both give the
// same values. One command's slot is nanoseconds either way, but the
// whole-file passes checksum every slot of the file, and there the
// table walk was most of the serialize time: it moves about 0.3 GB/s
// against about 6.5 GB/s for SSE4.2 (16 MiB in 56 vs 2.5 ms on a 4-vCPU
// x86-64 VM).
//
// Masking: values are stored on disk unmasked. The format never
// checksums a buffer that itself embeds this CRC (the slot header's crc
// field is excluded from its own coverage), so RocksDB-style masking is
// unnecessary.

#ifndef DSF_UTIL_CRC32C_H_
#define DSF_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace dsf {

// Extends `crc` (0 for a fresh computation) over `data[0, n)`.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

// The portable table walk, whatever the CPU: the reference that tests
// compare the dispatched kernel against.
uint32_t Crc32cExtendTableForTesting(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace dsf

#endif  // DSF_UTIL_CRC32C_H_
