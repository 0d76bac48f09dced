// Shared framing codec for the project's CRC-32 "v2" container format
// (docs/RELIABILITY.md "Checkpoint integrity"):
//
//   [magic u32]            not checksummed
//   [0xFFFFFFFF sentinel]  not checksummed — distinguishes versioned
//                          streams from the legacy v1 layout, whose
//                          second word was a payload count
//   [version u32]          checksummed
//   [payload ...]          checksummed
//   [CRC-32 u32]           not checksummed
//
// Every binary file kind the project persists — model checkpoints
// (nn/serialize), placement snapshots (placer/snapshot) and trace files
// (train/trace_io) — builds on these primitives, so corruption
// detection, error wording, and the atomic publish protocol behave
// identically everywhere. The layer DAG
// allows every src/ layer to depend on util, which is why the codec
// lives here rather than in nn.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace laco::serial {

/// Second header word of every versioned stream. Can never collide with
/// a legacy v1 count, so readers use it to detect the framed layout.
constexpr std::uint32_t kVersionSentinel = 0xffffffffu;

/// Default corruption guards: a flipped bit in a length field must
/// produce a clean error, not a multi-gigabyte allocation. Callers with
/// tighter domain knowledge pass their own caps per read.
constexpr std::uint32_t kMaxStringBytes = 1u << 24;
constexpr std::uint64_t kMaxArrayElements = std::uint64_t{1} << 27;

/// Serializer that mirrors every checksummed byte into a running CRC.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void bytes(const void* data, std::size_t n, bool checksum = true);
  void u32(std::uint32_t v, bool checksum = true) { bytes(&v, sizeof(v), checksum); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i32(std::int32_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void flag(bool v) { u32(v ? 1u : 0u); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(double));
  }
  std::uint32_t crc() const { return crc_; }

 private:
  std::ostream& out_;
  std::uint32_t crc_ = 0;
};

/// Deserializer tracking the byte offset of every read (for error
/// messages) and, once start_checksum() is called, the running CRC of
/// everything consumed.
class Reader {
 public:
  /// `context` prefixes every error ("load_parameters", "load_snapshot")
  /// so messages stay attributable to the file kind being read.
  Reader(std::istream& in, std::string source, std::string context)
      : in_(in), source_(std::move(source)), context_(std::move(context)) {}

  /// Error qualified with the source and the offset where the failing
  /// read began — "at byte offset 132 in 'congestion.bin'".
  [[noreturn]] void fail(const std::string& what) const;

  void bytes(void* dst, std::size_t n, const char* what);
  std::uint32_t u32(const char* what) {
    std::uint32_t v = 0;
    bytes(&v, sizeof(v), what);
    return v;
  }
  std::uint64_t u64(const char* what) {
    std::uint64_t v = 0;
    bytes(&v, sizeof(v), what);
    return v;
  }
  std::int32_t i32(const char* what) {
    std::int32_t v = 0;
    bytes(&v, sizeof(v), what);
    return v;
  }
  double f64(const char* what) {
    double v = 0.0;
    bytes(&v, sizeof(v), what);
    return v;
  }
  bool flag(const char* what) { return u32(what) != 0; }
  std::string str(const char* what, std::uint32_t max_len = kMaxStringBytes);
  std::vector<double> doubles(const char* what, std::uint64_t max_elems = kMaxArrayElements);

  void start_checksum() { checksumming_ = true; }
  void stop_checksum() { checksumming_ = false; }
  std::uint32_t crc() const { return crc_; }
  const std::string& source() const { return source_; }

 private:
  std::istream& in_;
  std::string source_;
  std::string context_;
  std::size_t offset_ = 0;
  std::uint32_t crc_ = 0;
  bool checksumming_ = false;
};

/// Writes [magic][sentinel][version] and leaves the Writer's CRC
/// covering the version word onward (magic and sentinel stay outside
/// the digest, matching the v2 checkpoint layout).
void write_frame_header(Writer& w, std::uint32_t magic, std::uint32_t version);

/// Appends the trailing CRC-32 over everything checksummed so far.
void write_frame_trailer(Writer& w);

/// Reads and validates [magic][sentinel][version]; starts the CRC at
/// the version word; fails unless version == expected_version. `kind`
/// names the file kind in errors ("placement snapshot").
void read_frame_header(Reader& r, std::uint32_t magic, std::uint32_t expected_version,
                       const char* kind);

/// Reads the trailing digest and fails on mismatch with the canonical
/// "checksum mismatch (stored 0x…, computed 0x…)" wording.
void read_frame_trailer(Reader& r);

/// Atomic publish: streams through `fn` into `path + ".tmp"`, flushes,
/// then rename(2)s over `path` — readers see either the old complete
/// file or the new complete file, never a partial write. Returns false
/// on any failure (the temp file is removed). Checkpoints, snapshots,
/// trace files and the model set's text files all publish through it.
bool atomic_write_file(const std::string& path, const std::function<bool(std::ostream&)>& fn);

}  // namespace laco::serial
