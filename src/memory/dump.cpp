#include "memory/dump.h"

#include "common/strings.h"

namespace rvss::memory {
namespace {

std::uint32_t ClampLength(const MainMemory& memory, std::uint32_t start,
                          std::uint32_t length) {
  if (start >= memory.size()) return 0;
  const std::uint32_t available = memory.size() - start;
  if (length == 0 || length > available) return available;
  return length;
}

}  // namespace

std::string ExportBinary(const MainMemory& memory, std::uint32_t start,
                         std::uint32_t length) {
  length = ClampLength(memory, start, length);
  const std::vector<std::uint8_t> bytes = memory.Bytes();
  return std::string(reinterpret_cast<const char*>(bytes.data()) + start,
                     length);
}

Status ImportBinary(MainMemory& memory, std::string_view data,
                    std::uint32_t start) {
  if (!memory.InBounds(start, static_cast<std::uint32_t>(data.size()))) {
    return Status::Fail(ErrorKind::kInvalidArgument,
                        "binary dump does not fit in memory");
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    memory.Write8(start + static_cast<std::uint32_t>(i),
                  static_cast<std::uint8_t>(data[i]));
  }
  return Status::Ok();
}

std::string ExportCsv(const MainMemory& memory, std::uint32_t start,
                      std::uint32_t length) {
  length = ClampLength(memory, start, length);
  std::string out = "address,value\n";
  for (std::uint32_t i = 0; i < length; ++i) {
    const std::uint32_t address = start + i;
    out += StrFormat("0x%08x,%u\n", address,
                     static_cast<unsigned>(memory.Read8(address)));
  }
  return out;
}

Status ImportCsv(MainMemory& memory, std::string_view csv) {
  std::uint32_t lineNo = 0;
  for (std::string_view line : Split(csv, '\n')) {
    ++lineNo;
    line = Trim(line);
    if (line.empty() || line == "address,value") continue;
    auto fields = Split(line, ',');
    if (fields.size() != 2) {
      return Status::Fail(ErrorKind::kParse, "CSV row needs 2 fields",
                          SourcePos{lineNo, 0});
    }
    auto address = ParseInt(Trim(fields[0]));
    auto value = ParseInt(Trim(fields[1]));
    if (!address || !value) {
      return Status::Fail(ErrorKind::kParse, "malformed CSV row",
                          SourcePos{lineNo, 0});
    }
    if (*address < 0 || *value < 0 || *value > 255 ||
        !memory.InBounds(static_cast<std::uint32_t>(*address), 1)) {
      return Status::Fail(ErrorKind::kParse, "CSV row out of range",
                          SourcePos{lineNo, 0});
    }
    memory.Write8(static_cast<std::uint32_t>(*address),
                  static_cast<std::uint8_t>(*value));
  }
  return Status::Ok();
}

}  // namespace rvss::memory
