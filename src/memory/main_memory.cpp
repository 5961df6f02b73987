#include "memory/main_memory.h"

#include <algorithm>

namespace rvss::memory {

std::uint64_t MainMemory::ReadBytes(std::uint32_t address,
                                    std::uint32_t accessSize) const {
  switch (accessSize) {
    case 1: return Read8(address);
    case 2: return ReadLe<2>(address);
    case 4: return ReadLe<4>(address);
    default: return ReadLe<8>(address);
  }
}

void MainMemory::WriteBytes(std::uint32_t address, std::uint32_t accessSize,
                            std::uint64_t value) {
  switch (accessSize) {
    case 1: Write8(address, static_cast<std::uint8_t>(value)); break;
    case 2: WriteLe<2>(address, value); break;
    case 4: WriteLe<4>(address, value); break;
    default: WriteLe<8>(address, value); break;
  }
}

std::vector<std::uint8_t> MainMemory::Bytes() const {
  std::vector<std::uint8_t> bytes(state_.sizeBytes);
  for (std::size_t offset = 0; offset < bytes.size();
       offset += kPageSizeBytes) {
    const std::size_t length =
        std::min<std::size_t>(kPageSizeBytes, bytes.size() - offset);
    std::copy_n(state_.pages[offset / kPageSizeBytes]->begin(), length,
                bytes.data() + offset);
  }
  return bytes;
}

}  // namespace rvss::memory
