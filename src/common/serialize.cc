#include "common/serialize.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

namespace bbv::common {

namespace {

template <typename T>
void WriteRaw(std::ostream& out, T value) {
  // The library targets little-endian hosts; a static assert documents the
  // assumption instead of byte-swapping.
  static_assert(sizeof(T) <= 8);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadRaw(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

/// Reads `count` elements into `values`, at most 1 MiB per step, growing
/// the container only as bytes arrive: a corrupt length prefix then fails
/// at the end of the stream instead of allocating its full size up front.
template <typename Container>
bool ReadChunked(std::istream& in, uint64_t count, Container& values) {
  using T = typename Container::value_type;
  constexpr uint64_t kChunkElements = (uint64_t{1} << 20) / sizeof(T);
  uint64_t done = 0;
  while (done < count) {
    const uint64_t step = std::min(count - done, kChunkElements);
    values.resize(done + step);
    in.read(reinterpret_cast<char*>(values.data() + done),
            static_cast<std::streamsize>(step * sizeof(T)));
    if (!in) return false;
    done += step;
  }
  return true;
}

}  // namespace

void BinaryWriter::WriteMagic(const std::string& magic, uint32_t version) {
  out_.write(magic.data(), static_cast<std::streamsize>(magic.size()));
  WriteUint32(version);
}

void BinaryWriter::WriteUint32(uint32_t value) { WriteRaw(out_, value); }
void BinaryWriter::WriteUint64(uint64_t value) { WriteRaw(out_, value); }
void BinaryWriter::WriteInt32(int32_t value) { WriteRaw(out_, value); }
void BinaryWriter::WriteDouble(double value) { WriteRaw(out_, value); }

void BinaryWriter::WriteString(const std::string& value) {
  WriteUint64(value.size());
  out_.write(value.data(), static_cast<std::streamsize>(value.size()));
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& values) {
  WriteUint64(values.size());
  out_.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(values.size() * sizeof(double)));
}

void BinaryWriter::WriteInt32Vector(const std::vector<int32_t>& values) {
  WriteUint64(values.size());
  out_.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(values.size() * sizeof(int32_t)));
}

Status BinaryWriter::status() const {
  if (!out_) return Status::IoError("serialization stream failed");
  return Status::OK();
}

Status BinaryReader::ExpectMagic(const std::string& magic,
                                 uint32_t expected_version) {
  std::string found(magic.size(), '\0');
  in_.read(found.data(), static_cast<std::streamsize>(magic.size()));
  if (!in_ || found != magic) {
    return Status::InvalidArgument("bad magic: expected '" + magic + "'");
  }
  BBV_ASSIGN_OR_RETURN(uint32_t version, ReadUint32());
  if (version != expected_version) {
    return Status::InvalidArgument(
        "unsupported version " + std::to_string(version) + " for '" + magic +
        "', expected " + std::to_string(expected_version));
  }
  return Status::OK();
}

Result<uint32_t> BinaryReader::ReadUint32() {
  uint32_t value = 0;
  if (!ReadRaw(in_, value)) return Status::IoError("truncated stream");
  return value;
}

Result<uint64_t> BinaryReader::ReadUint64() {
  uint64_t value = 0;
  if (!ReadRaw(in_, value)) return Status::IoError("truncated stream");
  return value;
}

Result<int32_t> BinaryReader::ReadInt32() {
  int32_t value = 0;
  if (!ReadRaw(in_, value)) return Status::IoError("truncated stream");
  return value;
}

Result<double> BinaryReader::ReadDouble() {
  double value = 0.0;
  if (!ReadRaw(in_, value)) return Status::IoError("truncated stream");
  return value;
}

Result<std::string> BinaryReader::ReadString() {
  BBV_ASSIGN_OR_RETURN(uint64_t size, ReadUint64());
  if (size > kMaxElementCount) {
    return Status::InvalidArgument("implausible string length");
  }
  std::string value;
  if (!ReadChunked(in_, size, value)) {
    return Status::IoError("truncated stream");
  }
  return value;
}

Result<std::vector<double>> BinaryReader::ReadDoubleVector() {
  BBV_ASSIGN_OR_RETURN(uint64_t size, ReadUint64());
  if (size > kMaxElementCount) {
    return Status::InvalidArgument("implausible vector length");
  }
  std::vector<double> values;
  if (!ReadChunked(in_, size, values)) {
    return Status::IoError("truncated stream");
  }
  return values;
}

Result<std::vector<int32_t>> BinaryReader::ReadInt32Vector() {
  BBV_ASSIGN_OR_RETURN(uint64_t size, ReadUint64());
  if (size > kMaxElementCount) {
    return Status::InvalidArgument("implausible vector length");
  }
  std::vector<int32_t> values;
  if (!ReadChunked(in_, size, values)) {
    return Status::IoError("truncated stream");
  }
  return values;
}

}  // namespace bbv::common
