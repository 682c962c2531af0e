#include "src/service/wal.h"

#include <fcntl.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>

#include "src/service/wire.h"
#include "src/util/serialization.h"

namespace prochlo {

namespace {

namespace fs = std::filesystem;

// Record kinds inside a WAL block.  A block is one ordinary wire frame whose
// payload concatenates records — the frame CRC guards the log, and the 22 B
// frame header is paid once per group commit, not once per report.
enum WalRecordKind : uint8_t {
  kWalReport = 1,        // shard, epoch, report (ack-less sink)
  kWalReportCommit = 2,  // shard, epoch, session, seq, report — THE unified
                         // record: report durability and the ack commit are
                         // one atomic append
  kWalEvict = 3,         // session, floor
  kWalGoodbye = 4,       // session
};

constexpr char kCheckpointName[] = "wal.ckpt";
// A published file's body goes out in frames of this size, so a snapshot of
// any session count stays clear of kMaxFramePayload.
constexpr size_t kPublishChunkBytes = 64 * 1024;

bool IsReport(uint8_t kind) { return kind == kWalReport || kind == kWalReportCommit; }

uint64_t EncodedRecordSize(uint8_t kind, size_t report_size) {
  switch (kind) {
    case kWalReport:
      return 1 + 8 + 8 + 4 + report_size;
    case kWalReportCommit:
      return 1 + 8 + 8 + 8 + 8 + 4 + report_size;
    case kWalEvict:
      return 1 + 8 + 8;
    case kWalGoodbye:
      return 1 + 8;
    default:
      return 0;
  }
}

// One decoded (or to-be-encoded) WAL record.
struct WalRecord {
  uint8_t kind = 0;
  uint64_t shard = 0;
  uint64_t epoch = 0;
  uint64_t session_id = 0;
  uint64_t value = 0;  // seq (commit) or watermark floor (evict)
  Bytes report;
};

void EncodeRecord(Writer& w, uint8_t kind, uint64_t shard, uint64_t epoch,
                  uint64_t session_id, uint64_t value, ByteSpan report) {
  w.PutU8(kind);
  if (IsReport(kind)) {
    w.PutU64(shard);
    w.PutU64(epoch);
  }
  if (kind != kWalReport) {
    w.PutU64(session_id);
  }
  if (kind == kWalReportCommit || kind == kWalEvict) {
    w.PutU64(value);
  }
  if (IsReport(kind)) {
    w.PutLengthPrefixed(report);
  }
}

enum class Parsed { kRecord, kEnd, kMalformed };

// Decodes the next record of a block.  Unknown kinds have unknown lengths,
// so nothing after one can be framed; the block's CRC passed, so it is a
// newer writer's record — the rest of the block is skipped.
Parsed NextRecord(Reader& r, WalRecord& rec) {
  if (r.AtEnd()) {
    return Parsed::kEnd;
  }
  rec = WalRecord{};
  if (!r.GetU8(&rec.kind)) {
    return Parsed::kMalformed;
  }
  if (rec.kind < kWalReport || rec.kind > kWalGoodbye) {
    r = Reader(ByteSpan());
    return Parsed::kEnd;
  }
  bool ok = true;
  if (IsReport(rec.kind)) {
    ok = r.GetU64(&rec.shard) && r.GetU64(&rec.epoch);
  }
  if (ok && rec.kind != kWalReport) {
    ok = r.GetU64(&rec.session_id);
  }
  if (ok && (rec.kind == kWalReportCommit || rec.kind == kWalEvict)) {
    ok = r.GetU64(&rec.value);
  }
  if (ok && IsReport(rec.kind)) {
    ok = r.GetLengthPrefixed(&rec.report);
  }
  return ok ? Parsed::kRecord : Parsed::kMalformed;
}

// Applies one op to `image` exactly as the AckRegistry applied it when it
// was logged.
void Fold(SessionImage& image, const SessionOp& op) {
  switch (op.kind) {
    case SessionOp::kCommit: {
      image.evicted.erase(op.session_id);
      SessionSnapshot& s = image.live[op.session_id];
      if (op.value >= s.watermark) {
        s.sparse.insert(op.value);
      }
      // The registry's sweep: the sparse set stays the out-of-order window
      // above the watermark, which saturates instead of wrapping.
      while (!s.sparse.empty() && *s.sparse.begin() == s.watermark && s.watermark != UINT64_MAX) {
        s.sparse.erase(s.sparse.begin());
        s.watermark++;
      }
      return;
    }
    case SessionOp::kEvict:
      image.live.erase(op.session_id);
      image.evicted[op.session_id] = op.value;
      return;
    case SessionOp::kGoodbye:
      image.live.erase(op.session_id);
      image.evicted.erase(op.session_id);
      return;
  }
}

std::optional<SessionOp> SessionOpOf(uint8_t kind, uint64_t session_id, uint64_t value) {
  switch (kind) {
    case kWalReportCommit:
      return SessionOp{SessionOp::kCommit, session_id, value};
    case kWalEvict:
      return SessionOp{SessionOp::kEvict, session_id, value};
    case kWalGoodbye:
      return SessionOp{SessionOp::kGoodbye, session_id, 0};
    default:
      return std::nullopt;
  }
}

// Reads a generation one CRC-checked block at a time: at most one block is
// resident, never the whole file.  Reads stay on the plain stdio path, like
// every recovery read: a post-crash reopen sees whatever bytes landed.
class BlockReader {
 public:
  explicit BlockReader(const std::string& path) : file_(std::fopen(path.c_str(), "rb")) {}
  ~BlockReader() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }
  BlockReader(const BlockReader&) = delete;
  BlockReader& operator=(const BlockReader&) = delete;

  // The next block's payload; nullopt at the end of the file or at the
  // first block that fails to read or check (bad() tells them apart).
  std::optional<Bytes> Next() {
    if (bad_) {
      return std::nullopt;
    }
    if (file_ == nullptr) {
      bad_ = true;
      return std::nullopt;
    }
    uint8_t header[kFrameHeaderSize];
    size_t got = std::fread(header, 1, sizeof(header), file_);
    if (got == 0) {
      return std::nullopt;
    }
    FrameHeader parsed;
    if (!ParseFrameHeader(ByteSpan(header, got), &parsed) || !PlausibleFrameHeader(parsed)) {
      bad_ = true;
      return std::nullopt;
    }
    Bytes frame(kFrameHeaderSize + parsed.length);
    std::memcpy(frame.data(), header, sizeof(header));
    if (std::fread(frame.data() + kFrameHeaderSize, 1, parsed.length, file_) != parsed.length) {
      bad_ = true;
      return std::nullopt;
    }
    auto payload = DecodeFrame(frame);
    if (!payload.ok()) {
      bad_ = true;
      return std::nullopt;
    }
    offset_ += frame.size();
    return std::move(payload).value();
  }

  bool bad() const { return bad_; }
  // End of the clean prefix: the blocks read so far.
  uint64_t offset() const { return offset_; }

 private:
  std::FILE* file_;
  uint64_t offset_ = 0;
  bool bad_ = false;
};

// Whether the bytes of `path` from `offset` on are a torn write — the
// remains of one interrupted block — rather than damage: no CRC-valid frame
// may follow them (bit rot leaves the blocks after it intact), and they
// must not start a block of another wire version.
bool IsTornTail(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr || std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    if (f != nullptr) {
      std::fclose(f);
    }
    return false;
  }
  uint8_t buffer[1 << 16] = {};
  size_t got = std::fread(buffer, 1, sizeof(buffer), f);
  // Magic at offset 0 and version at 4, in every wire version.
  const uint32_t magic = static_cast<uint32_t>(buffer[0]) | static_cast<uint32_t>(buffer[1]) << 8 |
                         static_cast<uint32_t>(buffer[2]) << 16 |
                         static_cast<uint32_t>(buffer[3]) << 24;
  bool torn = !(got >= 5 && magic == kFrameMagic && buffer[4] != kWireVersion);
  StreamingFrameDecoder decoder;
  std::vector<Frame> frames;
  size_t skip = 1;  // the bad block's own first byte
  while (torn && got > skip) {
    decoder.Feed(ByteSpan(buffer + skip, got - skip), frames);
    torn = frames.empty();
    skip = 0;
    got = std::fread(buffer, 1, sizeof(buffer), f);
  }
  std::fclose(f);
  if (torn) {
    decoder.Finish(&frames);
    torn = frames.empty();
  }
  return torn;
}

// A file written by PublishFile: its header frame and its chunk frames'
// payloads joined.
struct PublishedFile {
  Bytes header;
  Bytes body;
};

// Reads a published file (wal.ckpt, a seal marker) whole; nullopt on a
// missing, torn or corrupt one.
std::optional<PublishedFile> ReadPublishedFile(const std::string& path) {
  BlockReader reader(path);
  auto header = reader.Next();
  if (!header.has_value()) {
    return std::nullopt;
  }
  PublishedFile file{std::move(*header), {}};
  while (auto chunk = reader.Next()) {
    file.body.insert(file.body.end(), chunk->begin(), chunk->end());
  }
  if (reader.bad()) {
    return std::nullopt;
  }
  return file;
}

// Parses wal.ckpt: the header's covered generation and counts, then exactly
// that many live sessions and tombstones, and nothing after them.
bool ParseCheckpoint(const PublishedFile& file, uint64_t* covered, SessionImage* image) {
  Reader header(file.header);
  uint64_t live = 0;
  uint64_t evicted = 0;
  if (!header.GetU64(covered) || !header.GetU64(&live) || !header.GetU64(&evicted) ||
      !header.AtEnd()) {
    return false;
  }
  Reader r(file.body);
  for (uint64_t i = 0; i < live; ++i) {
    uint64_t id = 0;
    uint32_t count = 0;
    SessionSnapshot s;
    if (!r.GetU64(&id) || !r.GetU64(&s.watermark) || !r.GetU32(&count)) {
      return false;
    }
    for (uint32_t j = 0; j < count; ++j) {
      uint64_t seq = 0;
      if (!r.GetU64(&seq)) {
        return false;
      }
      s.sparse.insert(seq);
    }
    image->live.emplace(id, std::move(s));
  }
  for (uint64_t i = 0; i < evicted; ++i) {
    uint64_t id = 0;
    uint64_t floor = 0;
    if (!r.GetU64(&id) || !r.GetU64(&floor)) {
      return false;
    }
    image->evicted.emplace(id, floor);
  }
  return r.AtEnd() && image->live.size() == live && image->evicted.size() == evicted;
}

Status WriteAllFs(Fs* fs, int fd, ByteSpan data) {
  size_t done = 0;
  while (done < data.size()) {
    auto n = fs->Write(fd, data.subspan(done));
    if (!n.ok()) {
      return n.error();
    }
    done += n.value();
  }
  return Status::Ok();
}

// RecordStream over a sealed epoch's generations: the epoch's reports in
// log order, one block resident at a time.
class GenerationStream : public RecordStream {
 public:
  GenerationStream(std::vector<std::string> paths, uint64_t epoch, size_t total)
      : paths_(std::move(paths)), epoch_(epoch), total_(total) {}

  size_t size() const override { return total_; }

  std::optional<Bytes> Next() override {
    WalRecord rec;
    while (!failed_) {
      if (block_.has_value()) {
        Parsed parsed = NextRecord(records_, rec);
        if (parsed == Parsed::kRecord) {
          if (IsReport(rec.kind) && rec.epoch == epoch_) {
            return std::move(rec.report);
          }
          continue;
        }
        failed_ = parsed == Parsed::kMalformed;
        block_.reset();
        continue;
      }
      if (file_ == nullptr) {
        if (next_path_ == paths_.size()) {
          return std::nullopt;
        }
        file_ = std::make_unique<BlockReader>(paths_[next_path_++]);
      }
      block_ = file_->Next();
      if (block_.has_value()) {
        records_ = Reader(*block_);
      } else {
        // A bad block ends the stream short of size(): the drain fails
        // instead of releasing part of the epoch.
        failed_ = file_->bad();
        file_.reset();
      }
    }
    return std::nullopt;
  }

  void Reset() override {
    file_.reset();
    block_.reset();
    next_path_ = 0;
    failed_ = false;
  }

 private:
  std::vector<std::string> paths_;
  uint64_t epoch_;
  size_t total_;
  size_t next_path_ = 0;
  std::unique_ptr<BlockReader> file_;
  std::optional<Bytes> block_;
  Reader records_{ByteSpan()};
  bool failed_ = false;
};

}  // namespace

IngestWal::IngestWal(const IngestWalConfig& config)
    : config_(config), fs_(config.fs != nullptr ? config.fs : Fs::Real()) {}

IngestWal::~IngestWal() {
  // Resolve any still-buffered completions (exactly-once: a completion that
  // never fires wedges its connection's ack book).  Best effort — at this
  // point the owner has already stopped the worker pool, so pending is
  // normally empty.
  (void)Sync();
  MutexLock lock(mu_);
  if (fd_ >= 0) {
    fs_->Close(fd_);
    fd_ = -1;
  }
}

std::string IngestWal::GenPath(uint64_t gen) const {
  return config_.dir + "/ingest-" + std::to_string(gen) + ".wal";
}

std::string IngestWal::MarkerPath(uint64_t epoch) const {
  return config_.dir + "/epoch-" + std::to_string(epoch) + ".sealed";
}

Status IngestWal::PublishFile(const std::string& path, ByteSpan header, ByteSpan body) {
  const std::string tmp = path + ".tmp";
  auto fd = fs_->Open(tmp, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (!fd.ok()) {
    return Error{"wal: cannot write " + tmp + ": " + fd.error().message};
  }
  Bytes frames = EncodeFrame(header);
  for (size_t at = 0; at < body.size(); at += kPublishChunkBytes) {
    AppendFrame(frames, body.subspan(at, std::min(kPublishChunkBytes, body.size() - at)));
  }
  Status result = WriteAllFs(fs_, fd.value(), frames);
  if (result.ok() && config_.fsync) {
    result = fs_->Sync(fd.value());
    if (result.ok()) {
      MutexLock lock(stats_mu_);
      stats_.fsyncs++;
    }
  }
  fs_->Close(fd.value());
  if (result.ok()) {
    // The atomic commit point: before the rename the old file is
    // authoritative, after it the new one is.
    result = fs_->Rename(tmp, path);
  }
  if (result.ok() && config_.fsync) {
    // And the rename only holds once the dirent is durable.
    result = fs_->SyncDir(config_.dir);
  }
  if (!result.ok()) {
    (void)fs_->Remove(tmp);  // best effort; recovery also clears stale temps
  }
  return result;
}

Status IngestWal::RemoveInOrder(const std::string& path) {
  if (config_.fsync) {
    // The dir fsync makes every earlier unlink durable first, so a power
    // loss can undo only the tail of a removal, never leave a hole in it.
    Status synced = fs_->SyncDir(config_.dir);
    if (!synced.ok()) {
      return synced;
    }
  }
  return fs_->Remove(path);
}

Status IngestWal::WriteCheckpoint(uint64_t covered_gen, const SessionImage& image) {
  Writer header;
  header.PutU64(covered_gen);
  header.PutU64(image.live.size());
  header.PutU64(image.evicted.size());
  Writer body;
  for (const auto& [id, s] : image.live) {
    body.PutU64(id);
    body.PutU64(s.watermark);
    body.PutU32(static_cast<uint32_t>(s.sparse.size()));
    for (uint64_t seq : s.sparse) {
      body.PutU64(seq);
    }
  }
  for (const auto& [id, floor] : image.evicted) {
    body.PutU64(id);
    body.PutU64(floor);
  }
  return PublishFile(config_.dir + "/" + kCheckpointName, header.data(), body.data());
}

Status IngestWal::WriteSealMarker(uint64_t epoch, const EpochFiles& files) {
  Writer w;
  w.PutU64(epoch);
  w.PutU32(static_cast<uint32_t>(files.gens.size()));
  for (const GenFile& gen : files.gens) {
    w.PutU64(gen.gen);
    w.PutU64(gen.bytes);
  }
  w.PutU32(static_cast<uint32_t>(files.counts.size()));
  for (uint64_t count : files.counts) {
    w.PutU64(count);
  }
  return PublishFile(MarkerPath(epoch), w.data());
}

std::optional<IngestWal::EpochFiles> IngestWal::ReadSealMarker(uint64_t epoch) const {
  auto file = ReadPublishedFile(MarkerPath(epoch));
  if (!file.has_value() || !file->body.empty()) {
    return std::nullopt;
  }
  Reader r(file->header);
  EpochFiles files;
  uint64_t marker_epoch = 0;
  uint32_t count = 0;
  bool ok = r.GetU64(&marker_epoch) && marker_epoch == epoch && r.GetU32(&count);
  for (uint32_t i = 0; ok && i < count; ++i) {
    GenFile gen;
    ok = r.GetU64(&gen.gen) && r.GetU64(&gen.bytes);
    files.gens.push_back(gen);
  }
  ok = ok && r.GetU32(&count);
  for (uint32_t i = 0; ok && i < count; ++i) {
    files.counts.emplace_back();
    ok = r.GetU64(&files.counts.back());
  }
  if (!ok || !r.AtEnd()) {
    return std::nullopt;
  }
  return files;
}

// ----------------------------------------------------------------- recovery

struct IngestWal::RecoveryPlan {
  uint64_t covered = 0;  // what wal.ckpt covers once recovery finishes
  // The newest generation's clean length, when it ends in a torn write.
  std::optional<std::pair<uint64_t, uint64_t>> torn;
  std::map<uint64_t, EpochFiles> epochs;  // every epoch holding reports
  std::optional<uint64_t> open_epoch;     // the one that resumes
  std::set<uint64_t> reseal;              // epochs that need a new marker
  // Epochs whose files go: removal interrupted by a crash, or no reports.
  std::map<uint64_t, std::vector<uint64_t>> drop_epochs;  // epoch -> gens
  std::vector<uint64_t> drop_gens;        // covered, unnamed, no reports
  std::vector<std::string> stale_temps;
};

Result<IngestWal::Recovery> IngestWal::Recover() {
  // Startup is single-threaded: no appender or barrier can exist before
  // recovery hands out the open WAL, so plain member access is safe.
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    return Error{"wal: cannot create " + config_.dir + ": " + ec.message()};
  }
  RecoveryPlan plan;
  std::map<uint64_t, uint64_t> gens;  // gen -> file size
  std::set<uint64_t> markers;
  bool have_checkpoint = false;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long n = 0;
    if (name == kCheckpointName) {
      have_checkpoint = true;
    } else if (std::sscanf(name.c_str(), "ingest-%lu.wal", &n) == 1 &&
               name == "ingest-" + std::to_string(n) + ".wal") {
      std::error_code size_ec;
      gens[n] = fs::file_size(entry.path(), size_ec);
      if (size_ec) {
        return Error{"wal: cannot stat " + entry.path().string()};
      }
    } else if (std::sscanf(name.c_str(), "epoch-%lu.sealed", &n) == 1) {
      const std::string marker = "epoch-" + std::to_string(n) + ".sealed";
      if (name == marker) {
        markers.insert(n);
      } else if (name == marker + ".tmp") {
        plan.stale_temps.push_back(entry.path().string());
      }
    } else if (name == std::string(kCheckpointName) + ".tmp") {
      // A crash between writing and renaming; the rename never happened.
      plan.stale_temps.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Error{"wal: cannot scan " + config_.dir + ": " + ec.message()};
  }
  if (!have_checkpoint && !gens.empty()) {
    // Recovery publishes wal.ckpt before generation 1 exists, so
    // generations without it mean the directory was tampered with.
    return Error{"wal: generations present but no checkpoint in " + config_.dir};
  }
  uint64_t covered = 0;
  Recovery out;
  if (have_checkpoint) {
    // Published via tmp + fsync + rename + dir fsync; a torn or short one
    // means the discipline was violated underneath us.  Guessing would
    // lose session state or replay ops onto the wrong image — refuse.
    const std::string path = config_.dir + "/" + kCheckpointName;
    auto file = ReadPublishedFile(path);
    if (!file.has_value() || !ParseCheckpoint(*file, &covered, &out.sessions)) {
      return Error{"wal: corrupt checkpoint " + path};
    }
  }

  // Seal markers.  A marker naming a generation that is gone belongs to an
  // epoch whose drained files were mid-removal: finish removing it rather
  // than drain what is left.  Removal goes in the marker's order, so only a
  // prefix of the named generations can be gone; a hole anywhere else is
  // damage, and finishing the "removal" would drop acknowledged reports.
  // A marker whose generations all still have their recorded sizes (and
  // sit under wal.ckpt) is trusted without a scan.
  std::map<uint64_t, uint64_t> owner;  // gen -> sealed epoch naming it
  std::set<uint64_t> trusted;
  for (uint64_t epoch : markers) {
    auto parsed = ReadSealMarker(epoch);
    if (!parsed.has_value()) {
      return Error{"wal: corrupt seal marker " + MarkerPath(epoch)};
    }
    const EpochFiles& named = *parsed;
    size_t removed = 0;
    while (removed < named.gens.size() && gens.count(named.gens[removed].gen) == 0) {
      removed++;
    }
    bool matches = true;
    for (size_t i = removed; i < named.gens.size(); ++i) {
      const GenFile& gen = named.gens[i];
      auto it = gens.find(gen.gen);
      if (it == gens.end()) {
        return Error{"wal: " + GenPath(gen.gen) + " named by " + MarkerPath(epoch) +
                     " is missing while earlier ones remain; refusing to drop the epoch"};
      }
      matches = matches && it->second == gen.bytes && gen.gen <= covered;
    }
    if (removed > 0) {
      out.finished_removals++;
    }
    if (removed > 0 || named.gens.empty()) {
      plan.drop_epochs[epoch];  // its surviving generations join below
    } else if (matches) {
      trusted.insert(epoch);
      plan.epochs[epoch].counts = named.counts;
    } else {
      plan.reseal.insert(epoch);  // rescanned: the new marker records what is there
    }
    for (const GenFile& gen : named.gens) {
      owner[gen.gen] = epoch;
    }
  }

  // One pass over the generations, oldest first, one block at a time.
  const uint64_t newest = gens.empty() ? 0 : gens.rbegin()->first;
  for (auto& [gen, size] : gens) {
    const std::string path = GenPath(gen);
    auto own = owner.find(gen);
    std::optional<uint64_t> epoch;
    if (own != owner.end()) {
      epoch = own->second;
    }
    GenFile file{gen, size, 0};
    std::vector<uint64_t> counts;
    const bool known = epoch.has_value() &&
                       (trusted.count(*epoch) != 0 || plan.drop_epochs.count(*epoch) != 0);
    if (!known || gen > covered) {
      BlockReader reader(path);
      WalRecord rec;
      while (auto block = reader.Next()) {
        Reader records(*block);
        Parsed parsed;
        while ((parsed = NextRecord(records, rec)) == Parsed::kRecord) {
          if (gen > covered) {
            if (auto op = SessionOpOf(rec.kind, rec.session_id, rec.value)) {
              Fold(out.sessions, *op);
              out.replayed_session_ops++;
            }
          }
          if (!IsReport(rec.kind)) {
            continue;
          }
          if (epoch.has_value() && *epoch != rec.epoch) {
            return Error{"wal: " + path + " holds reports of epochs " + std::to_string(*epoch) +
                         " and " + std::to_string(rec.epoch)};
          }
          epoch = rec.epoch;
          file.reports++;
          if (counts.size() <= rec.shard) {
            counts.resize(rec.shard + 1, 0);
          }
          counts[rec.shard]++;
        }
        if (parsed == Parsed::kMalformed) {
          return Error{"wal: truncated record inside a CRC-valid block of " + path +
                       " before offset " + std::to_string(reader.offset())};
        }
      }
      if (reader.bad()) {
        // Only a crash mid group commit may leave a bad block, and only at
        // the end of the newest generation, which no marker names (a seal
        // closes its generations).  Anything else is damage: truncating it
        // would silently drop acknowledged reports.
        if (gen != newest || own != owner.end() || !IsTornTail(path, reader.offset())) {
          return Error{"wal: corrupt block in " + path + " at offset " +
                       std::to_string(reader.offset()) + "; refusing to truncate"};
        }
        out.truncated_bytes = size - reader.offset();
        size = file.bytes = reader.offset();
        plan.torn.emplace(gen, size);
      }
    }
    if (!epoch.has_value()) {
      plan.drop_gens.push_back(gen);  // no reports: nothing to keep once covered
      continue;
    }
    if (plan.drop_epochs.count(*epoch) != 0) {
      plan.drop_epochs[*epoch].push_back(gen);
      continue;
    }
    if (gen > covered) {
      out.replayed_reports += file.reports;
    }
    if (own == owner.end() && markers.count(*epoch) != 0) {
      plan.reseal.insert(*epoch);  // reports the marker does not name
    }
    EpochFiles& files = plan.epochs[*epoch];
    files.gens.push_back(file);
    if (files.counts.size() < counts.size()) {
      files.counts.resize(counts.size(), 0);
    }
    for (size_t s = 0; s < counts.size(); ++s) {
      files.counts[s] += counts[s];
    }
  }

  // The newest unsealed epoch resumes; older unsealed ones can no longer
  // take reports and are sealed as found.  A sealed epoch without reports
  // has nothing to drain: its files go.
  for (auto it = plan.epochs.begin(); it != plan.epochs.end();) {
    const uint64_t epoch = it->first;
    uint64_t total = 0;
    for (uint64_t count : it->second.counts) {
      total += count;
    }
    if (markers.count(epoch) == 0) {
      if (plan.open_epoch.has_value()) {
        plan.reseal.insert(*plan.open_epoch);
      }
      plan.open_epoch = epoch;
    } else if (total == 0) {
      for (const GenFile& gen : it->second.gens) {
        plan.drop_epochs[epoch].push_back(gen.gen);
      }
      plan.reseal.erase(epoch);
      it = plan.epochs.erase(it);
      continue;
    }
    ++it;
  }
  if (plan.open_epoch.has_value()) {
    plan.reseal.erase(*plan.open_epoch);
  }
  for (const auto& [epoch, files] : plan.epochs) {
    out.epochs[epoch] = RecoveredEpoch{files.counts, epoch != plan.open_epoch};
  }
  plan.covered = std::max(covered, newest);
  Status applied = ApplyRecoveryPlan(plan, out.sessions);
  if (!applied.ok()) {
    return applied.error();
  }
  return out;
}

Status IngestWal::ApplyRecoveryPlan(RecoveryPlan& plan, SessionImage image) {
  if (plan.torn.has_value()) {
    Status truncated = fs_->Truncate(GenPath(plan.torn->first), plan.torn->second);
    if (!truncated.ok()) {
      return truncated;
    }
  }
  // The image holds every replayed session op: cover them all.
  Status published = WriteCheckpoint(plan.covered, image);
  if (!published.ok()) {
    return published;
  }
  for (uint64_t epoch : plan.reseal) {
    published = WriteSealMarker(epoch, plan.epochs[epoch]);
    if (!published.ok()) {
      return published;
    }
  }
  // Best effort from here: a file left behind is found again next time.
  // An epoch's marker goes only after all its generations did, so a
  // half-finished removal stays recognizable as one.
  for (const auto& [epoch, gen_list] : plan.drop_epochs) {
    bool removed = true;
    for (uint64_t gen : gen_list) {
      removed = removed && RemoveInOrder(GenPath(gen)).ok();
    }
    if (removed) {
      (void)RemoveInOrder(MarkerPath(epoch));
    }
  }
  for (uint64_t gen : plan.drop_gens) {
    (void)fs_->Remove(GenPath(gen));
  }
  for (const std::string& tmp : plan.stale_temps) {
    (void)fs_->Remove(tmp);
  }

  // Open the first generation past every existing one.  Its dirent must be
  // durable before any group commit relies on it: fsync(fd) persists
  // bytes, the directory fsync persists the name.
  const uint64_t active = plan.covered + 1;
  auto fd = fs_->Open(GenPath(active), O_CREAT | O_WRONLY | O_APPEND | O_TRUNC, 0644);
  if (!fd.ok()) {
    return fd.error();
  }
  if (config_.fsync) {
    Status dir = fs_->SyncDir(config_.dir);
    if (!dir.ok()) {
      fs_->Close(fd.value());
      return dir;
    }
  }
  {
    MutexLock sync_lock(sync_mu_);
    MutexLock lock(mu_);
    fd_ = fd.value();
    gen_ = active;
    gen_bytes_ = 0;
    gen_reports_ = 0;
    covered_gen_ = plan.covered;
    next_lsn_ = 1;
    synced_lsn_ = 0;
    for (auto& [epoch, files] : plan.epochs) {
      if (epoch == plan.open_epoch) {
        open_ = std::move(files);
      } else {
        sealed_[epoch] = std::move(files);
      }
    }
  }
  MutexLock ckpt_lock(ckpt_mu_);
  image_ = std::move(image);
  return Status::Ok();
}

SessionImage IngestWal::sessions() const {
  MutexLock ckpt_lock(ckpt_mu_);
  return image_;
}

// ------------------------------------------------------------------ appends

void IngestWal::set_rollback_callback(RollbackCallback cb) { rollback_ = std::move(cb); }

Result<uint64_t> IngestWal::AppendLocked(PendingRecord& record) {
  MutexLock lock(mu_);
  if (fd_ < 0) {
    return Error{"wal: not open"};
  }
  const uint64_t size = EncodedRecordSize(record.kind, record.report.size());
  if (size > kMaxFramePayload) {
    return Error{"wal: record exceeds max frame payload"};
  }
  record.lsn = next_lsn_++;
  pending_bytes_ += size;
  const uint64_t lsn = record.lsn;
  pending_.push_back(std::move(record));
  {
    MutexLock stats_lock(stats_mu_);
    stats_.appends++;
  }
  return lsn;
}

Result<uint64_t> IngestWal::AppendReport(size_t shard, uint64_t epoch, ByteSpan report,
                                         uint64_t session_id, uint64_t seq,
                                         Completion* done) {
  PendingRecord record;
  record.kind = session_id != 0 ? kWalReportCommit : kWalReport;
  record.shard = shard;
  record.epoch = epoch;
  record.session_id = session_id;
  record.value = seq;
  record.report.assign(report.begin(), report.end());
  if (done != nullptr && *done) {
    record.done = std::move(*done);
  }
  auto lsn = AppendLocked(record);  // moves from record only on success
  if (done != nullptr) {
    if (lsn.ok()) {
      *done = nullptr;  // consumed: the WAL now owns exactly-once firing
    } else if (record.done) {
      *done = std::move(record.done);  // hand back; the caller resolves it
    }
  }
  return lsn;
}

Result<uint64_t> IngestWal::AppendEvict(uint64_t session_id, uint64_t floor) {
  PendingRecord record;
  record.kind = kWalEvict;
  record.session_id = session_id;
  record.value = floor;
  return AppendLocked(record);
}

Result<uint64_t> IngestWal::AppendGoodbye(uint64_t session_id) {
  PendingRecord record;
  record.kind = kWalGoodbye;
  record.session_id = session_id;
  return AppendLocked(record);
}

// ------------------------------------------------------------- group commit

bool IngestWal::IsRolledBackLocked(uint64_t lsn) const {
  for (const auto& [lo, hi] : rolled_back_) {
    if (lsn >= lo && lsn <= hi) {
      return true;
    }
  }
  return false;
}

bool IngestWal::WasRolledBack(uint64_t lsn) const {
  MutexLock lock(sync_mu_);
  return IsRolledBackLocked(lsn);
}

Status IngestWal::FlushAsLeader() {
  // Precondition: this thread holds sync leadership (sync_inflight_ is set
  // and stays set until the caller clears it), so no other writer touches
  // the active generation fd.
  std::vector<PendingRecord> block;
  uint64_t target = 0;
  int fd = -1;
  uint64_t pre_bytes = 0;
  uint64_t active_gen = 0;
  bool dirty = false;
  {
    MutexLock lock(mu_);
    block = std::move(pending_);
    pending_.clear();
    pending_bytes_ = 0;
    target = next_lsn_ - 1;
    fd = fd_;
    pre_bytes = gen_bytes_;
    active_gen = gen_;
    dirty = dirty_tail_;
  }

  Status result = Status::Ok();
  uint64_t flushed_bytes = 0;
  bool wrote = false;
  if (dirty) {
    // A previous failed flush left garbage past the durable prefix and its
    // rollback truncate also failed.  Retry it before writing anything: a
    // clean frame appended after the garbage would make recovery refuse
    // the generation as corrupt.
    result = fs_->Truncate(GenPath(active_gen), pre_bytes);
    if (result.ok()) {
      MutexLock lock(mu_);
      if (gen_ == active_gen) {
        dirty_tail_ = false;
      }
    }
  }
  if (result.ok() && !block.empty()) {
    wrote = true;
    // Pack the block into as few frames as fit (one, except for enormous
    // bursts): the 22 B frame header amortizes across every record.
    Bytes out;
    Writer payload;
    auto flush_frame = [&] {
      if (!payload.data().empty()) {
        AppendFrame(out, payload.Take());
        payload = Writer();
      }
    };
    for (const PendingRecord& r : block) {
      if (payload.data().size() + EncodedRecordSize(r.kind, r.report.size()) >
          kMaxFramePayload) {
        flush_frame();
      }
      EncodeRecord(payload, r.kind, r.shard, r.epoch, r.session_id, r.value, r.report);
    }
    flush_frame();
    flushed_bytes = out.size();
    result = WriteAllFs(fs_, fd, out);
    if (result.ok() && config_.fsync) {
      result = fs_->Sync(fd);
    }
  }

  if (wrote && !result.ok()) {
    // Roll the generation back to its durable prefix so the dead records
    // can never replay; if even that fails, mark the tail dirty — the next
    // flush retries the truncate before it writes.
    MutexLock lock(mu_);
    if (gen_ == active_gen) {
      Status truncated = fs_->Truncate(GenPath(active_gen), pre_bytes);
      if (!truncated.ok()) {
        dirty_tail_ = true;
      }
    }
  } else if (wrote) {
    // The records are durable: count the open epoch's reports, queue the
    // session ops for the next checkpoint's image.  No report bytes are kept — the
    // generation is their one durable copy.
    MutexLock lock(mu_);
    gen_bytes_ = pre_bytes + flushed_bytes;
    for (const PendingRecord& r : block) {
      if (IsReport(r.kind)) {
        gen_reports_++;
        if (open_.counts.size() <= r.shard) {
          open_.counts.resize(r.shard + 1, 0);
        }
        open_.counts[r.shard]++;
      }
      if (auto op = SessionOpOf(r.kind, r.session_id, r.value)) {
        unapplied_.push_back(*op);
      }
    }
  }

  {
    MutexLock stats_lock(stats_mu_);
    if (wrote && result.ok()) {
      stats_.blocks_flushed++;
      stats_.records_flushed += block.size();
      stats_.bytes_flushed += flushed_bytes;
      if (config_.fsync) {
        stats_.fsyncs++;
      }
    }
    if (!result.ok()) {
      stats_.rolled_back_records += block.size();
    }
  }

  // Completions fire with no WAL lock held, strictly after the fsync and
  // strictly before the sync watermark (or the rolled-back range) becomes
  // visible — so a barrier returning implies the completion already ran,
  // and a stack-allocated completion context cannot dangle.
  for (PendingRecord& r : block) {
    if (!result.ok() && rollback_ && IsReport(r.kind)) {
      rollback_(static_cast<size_t>(r.shard), r.epoch);
    }
    if (r.done) {
      r.done(result);
    }
  }

  {
    MutexLock sync_lock(sync_mu_);
    if (result.ok()) {
      synced_lsn_ = std::max(synced_lsn_, target);
    } else if (!block.empty()) {
      // Dead LSNs must answer "rolled back", not strand a follower waiting
      // for a watermark that skipped them.  The list only grows on flush
      // failures — rare enough that a linear scan is fine.
      rolled_back_.emplace_back(block.front().lsn, block.back().lsn);
    }
  }
  return result;
}

Status IngestWal::SyncUpTo(uint64_t lsn) {
  MutexLock sync_lock(sync_mu_);
  for (;;) {
    if (IsRolledBackLocked(lsn)) {
      return Error{"wal: record lost by a failed group commit"};
    }
    if (lsn <= synced_lsn_) {
      return Status::Ok();
    }
    if (!sync_inflight_) {
      sync_inflight_ = true;
      sync_lock.Unlock();
      Status flushed = FlushAsLeader();
      sync_lock.Lock();
      sync_inflight_ = false;
      sync_cv_.NotifyAll();
      if (!flushed.ok() && IsRolledBackLocked(lsn)) {
        return flushed;
      }
      continue;
    }
    sync_cv_.Wait(sync_mu_);
  }
}

Status IngestWal::Sync() {
  uint64_t last = 0;
  {
    MutexLock lock(mu_);
    last = next_lsn_ - 1;
  }
  if (last == 0) {
    return Status::Ok();
  }
  // Barrier semantics, not record semantics: Sync() returns Ok once every
  // record appended so far is RESOLVED — durable, or rolled back with its
  // completion already NACKed.  (SyncUpTo(lsn) is the per-record form and
  // keeps failing for a dead lsn.)  Only the call that leads a failing
  // flush reports the error; a later barrier over the same dead tail is
  // clean, so a healed service can quiesce and stop.
  MutexLock sync_lock(sync_mu_);
  for (;;) {
    if (last <= synced_lsn_ || IsRolledBackLocked(last)) {
      return Status::Ok();
    }
    if (!sync_inflight_) {
      sync_inflight_ = true;
      sync_lock.Unlock();
      Status flushed = FlushAsLeader();
      sync_lock.Lock();
      sync_inflight_ = false;
      sync_cv_.NotifyAll();
      if (!flushed.ok()) {
        return flushed;
      }
      continue;
    }
    sync_cv_.Wait(sync_mu_);
  }
}

// ------------------------------------------------- checkpoint, seal, drain

Status IngestWal::RotateLocked() {
  if (gen_bytes_ == 0) {
    return Status::Ok();  // the active generation holds nothing to close
  }
  auto fd = fs_->Open(GenPath(gen_ + 1), O_CREAT | O_WRONLY | O_APPEND | O_TRUNC, 0644);
  if (!fd.ok()) {
    return fd.error();
  }
  Status dir = config_.fsync ? fs_->SyncDir(config_.dir) : Status::Ok();
  if (!dir.ok()) {
    fs_->Close(fd.value());
    (void)fs_->Remove(GenPath(gen_ + 1));  // best effort
    return dir;
  }
  fs_->Close(fd_);
  open_.gens.push_back(GenFile{gen_, gen_bytes_, gen_reports_});
  fd_ = fd.value();
  gen_++;
  gen_bytes_ = 0;
  gen_reports_ = 0;
  return Status::Ok();
}

Status IngestWal::Checkpoint() {
  MutexLock ckpt_lock(ckpt_mu_);
  return CheckpointLocked();
}

Status IngestWal::CheckpointLocked() {
  // Phase A — under group-commit leadership: flush the pending block, close
  // the active generation, take the session ops the closed generations
  // hold.  Barriers and appends resume the moment leadership is released.
  {
    MutexLock sync_lock(sync_mu_);
    while (sync_inflight_) {
      sync_cv_.Wait(sync_mu_);
    }
    sync_inflight_ = true;
  }
  Status status = FlushAsLeader();
  std::vector<SessionOp> ops;
  uint64_t covered = 0;
  uint64_t prev_covered = 0;
  if (status.ok()) {
    MutexLock lock(mu_);
    status = RotateLocked();
    ops.swap(unapplied_);
    covered = gen_ - 1;
    prev_covered = covered_gen_;
  }
  {
    MutexLock sync_lock(sync_mu_);
    sync_inflight_ = false;
    sync_cv_.NotifyAll();
  }
  if (status.ok() && ops.empty() && covered == prev_covered) {
    return Status::Ok();  // nothing new since the last checkpoint
  }

  // Phase B — fold the ops into a copy of the image and publish it.  Only
  // a published image is adopted: until then the old wal.ckpt and the
  // generations past it are the state, and the ops stay queued.
  SessionImage next;
  if (status.ok()) {
    next = image_;
    for (const SessionOp& op : ops) {
      Fold(next, op);
    }
    status = WriteCheckpoint(covered, next);
  }
  if (!status.ok()) {
    {
      // Ahead of anything flushed since, so the retry keeps log order.
      MutexLock lock(mu_);
      unapplied_.insert(unapplied_.begin(), ops.begin(), ops.end());
    }
    MutexLock stats_lock(stats_mu_);
    stats_.checkpoint_failures++;
    return status;
  }
  image_ = std::move(next);

  // Covered generations without reports have nothing left to give.
  std::vector<uint64_t> spent;
  {
    MutexLock lock(mu_);
    covered_gen_ = covered;
    auto& gens = open_.gens;
    for (auto it = gens.begin(); it != gens.end();) {
      if (it->reports == 0) {
        spent.push_back(it->gen);
        it = gens.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (uint64_t gen : spent) {
    (void)fs_->Remove(GenPath(gen));  // best effort: recovery drops it too
  }
  MutexLock stats_lock(stats_mu_);
  stats_.checkpoints++;
  return Status::Ok();
}

Status IngestWal::MaybeCheckpoint() {
  {
    MutexLock lock(mu_);
    if (gen_bytes_ + pending_bytes_ < config_.checkpoint_threshold_bytes) {
      return Status::Ok();
    }
  }
  return Checkpoint();
}

Status IngestWal::SealEpoch(uint64_t epoch) {
  MutexLock ckpt_lock(ckpt_mu_);
  // The checkpoint closes the epoch's last generation and folds every
  // session op in it into the snapshot, so the marker only ever names
  // covered generations.
  Status status = CheckpointLocked();
  if (!status.ok()) {
    return status;
  }
  EpochFiles files;
  {
    MutexLock lock(mu_);
    files = open_;
  }
  status = WriteSealMarker(epoch, files);
  if (!status.ok()) {
    return status;
  }
  MutexLock lock(mu_);
  open_ = EpochFiles{};
  sealed_[epoch] = std::move(files);
  return Status::Ok();
}

std::unique_ptr<RecordStream> IngestWal::OpenEpochStream(uint64_t epoch) const {
  std::vector<std::string> paths;
  uint64_t total = 0;
  {
    MutexLock lock(mu_);
    auto it = sealed_.find(epoch);
    if (it != sealed_.end()) {
      for (const GenFile& gen : it->second.gens) {
        paths.push_back(GenPath(gen.gen));
      }
      for (uint64_t count : it->second.counts) {
        total += count;
      }
    }
  }
  return std::make_unique<GenerationStream>(std::move(paths), epoch, total);
}

Status IngestWal::RemoveEpoch(uint64_t epoch) {
  std::vector<uint64_t> gens;
  {
    MutexLock lock(mu_);
    auto it = sealed_.find(epoch);
    if (it != sealed_.end()) {
      for (const GenFile& gen : it->second.gens) {
        gens.push_back(gen.gen);
      }
    }
  }
  // Generations first, in the marker's order, the marker last: a crash in
  // between leaves a marker naming a missing prefix of its generations, and
  // recovery finishes the removal instead of draining — and releasing —
  // what is left of the epoch.
  for (uint64_t gen : gens) {
    Status removed = RemoveInOrder(GenPath(gen));
    if (!removed.ok()) {
      return Error{"wal: cannot remove " + GenPath(gen) + ": " + removed.error().message};
    }
    MutexLock lock(mu_);
    auto& remaining = sealed_[epoch].gens;
    remaining.erase(remaining.begin());
  }
  Status removed = RemoveInOrder(MarkerPath(epoch));
  if (!removed.ok()) {
    return Error{"wal: cannot remove " + MarkerPath(epoch) + ": " + removed.error().message};
  }
  MutexLock lock(mu_);
  sealed_.erase(epoch);
  return Status::Ok();
}

IngestWal::Stats IngestWal::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace prochlo
