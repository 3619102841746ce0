#include "store/artifact_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <system_error>

#include "obs/metrics.hpp"
#include "util/binio.hpp"
#include "util/failpoint.hpp"
#include "util/file.hpp"

namespace lv::store {

namespace fs = std::filesystem;

namespace {

// Fault-injection sites (docs/RESILIENCE.md). Every durability claim the
// store makes — atomic publish, corrupt read = miss+delete, best-effort
// group index — is exercised by firing these under test/chaos load.
lv::failpoint::Site fp_read{"store.read"};
lv::failpoint::Site fp_temp_write{"store.temp_write"};
lv::failpoint::Site fp_rename{"store.rename"};
lv::failpoint::Site fp_group_write{"store.group_write"};
lv::failpoint::Site fp_sweep_unlink{"store.sweep_unlink"};

// Disk state persists across runs, so every store counter is a
// scheduling counter: two identical invocations legitimately differ
// (cold vs warm).
lv::obs::Counter& c_hits() {
  static auto& c = lv::obs::Registry::global().counter(
      "store.hits", lv::obs::Stability::scheduling);
  return c;
}
lv::obs::Counter& c_misses() {
  static auto& c = lv::obs::Registry::global().counter(
      "store.misses", lv::obs::Stability::scheduling);
  return c;
}
lv::obs::Counter& c_writes() {
  static auto& c = lv::obs::Registry::global().counter(
      "store.writes", lv::obs::Stability::scheduling);
  return c;
}
lv::obs::Counter& c_corrupt() {
  static auto& c = lv::obs::Registry::global().counter(
      "store.corrupt", lv::obs::Stability::scheduling);
  return c;
}
lv::obs::Counter& c_evictions() {
  static auto& c = lv::obs::Registry::global().counter(
      "store.evictions", lv::obs::Stability::scheduling);
  return c;
}
lv::obs::Counter& c_sweep_skipped_busy() {
  static auto& c = lv::obs::Registry::global().counter(
      "store.sweep_skipped_busy", lv::obs::Stability::scheduling);
  return c;
}

constexpr char kMagic[4] = {'L', 'V', 'S', 'T'};
constexpr std::uint32_t kEntryVersion = 1;
constexpr std::size_t kMaxGroupIndexKeys = 64;

bool is_hex32(std::string_view s) {
  if (s.size() != 32) return false;
  for (const char c : s)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

Key128 parse_hex32(std::string_view s) {
  auto nibble = [](char c) -> std::uint64_t {
    return c <= '9' ? static_cast<std::uint64_t>(c - '0')
                    : static_cast<std::uint64_t>(c - 'a' + 10);
  };
  Key128 k;
  for (std::size_t i = 0; i < 16; ++i) k.hi = (k.hi << 4) | nibble(s[i]);
  for (std::size_t i = 16; i < 32; ++i) k.lo = (k.lo << 4) | nibble(s[i]);
  return k;
}

}  // namespace

ArtifactStore::ArtifactStore(StoreOptions options)
    : options_{std::move(options)} {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);  // best effort
}

fs::path ArtifactStore::entry_path(std::string_view kind,
                                   const Key128& key) const {
  return options_.dir / std::string{kind} / (to_hex(key) + ".lvart");
}

fs::path ArtifactStore::group_path(std::string_view kind,
                                   std::string_view group) const {
  return options_.dir / (std::string{kind} + "@groups") /
         (std::string{group} + ".keys");
}

std::optional<std::string> ArtifactStore::get(std::string_view kind,
                                              const Key128& key) {
  const fs::path path = entry_path(kind, key);
  auto raw = util::read_file(path.string());  // unreadable: a miss
  if (raw) {
    if (const auto f = fp_read.fire()) {
      if (f.action == failpoint::Action::error) {
        // Injected EIO: the read never completed, so this is a plain
        // miss (the entry on disk is intact and stays).
        c_misses().add(1);
        return std::nullopt;
      }
      if (f.action == failpoint::Action::torn && !raw->empty())
        raw->resize(f.bits % raw->size());  // truncated read -> checksum path
      if (f.action == failpoint::Action::delay)
        failpoint::sleep_for_bits(f.bits);
    }
  }
  if (!raw) {
    c_misses().add(1);
    return std::nullopt;
  }
  try {
    util::ByteReader r{*raw};
    const std::string_view magic = r.bytes(4);
    util::require(std::string_view{kMagic, 4} == magic, "store: bad magic");
    util::require(r.u32() == kEntryVersion, "store: bad version");
    util::require(r.str() == kind, "store: kind mismatch");
    util::require(r.u64() == key.hi && r.u64() == key.lo,
                  "store: key mismatch");
    const std::string_view payload = r.str();
    util::require(r.remaining() == 8, "store: bad framing");
    const std::uint64_t want =
        fnv1a64(std::string_view{raw->data(), raw->size() - 8});
    util::require(r.u64() == want, "store: checksum mismatch");
    c_hits().add(1);
    // Touch for LRU recency; failure only skews eviction order.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return std::string{payload};
  } catch (const util::Error&) {
    // Never trust a damaged entry: delete it so it cannot poison the
    // next reader, and report a miss.
    c_corrupt().add(1);
    c_misses().add(1);
    std::error_code ec;
    fs::remove(path, ec);
    return std::nullopt;
  }
}

bool ArtifactStore::put(std::string_view kind, const Key128& key,
                        std::string_view payload, std::string_view group) {
  util::ByteWriter w;
  w.bytes(std::string_view{kMagic, 4});
  w.u32(kEntryVersion);
  w.str(kind);
  w.u64(key.hi);
  w.u64(key.lo);
  w.str(payload);
  w.u64(fnv1a64(w.data()));

  const fs::path path = entry_path(kind, key);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock{temp_mu_};
    seq = ++temp_seq_;
  }
  const fs::path tmp =
      path.parent_path() / (".tmp-" + std::to_string(::getpid()) + "-" +
                            std::to_string(seq));
  {
    std::string_view bytes = w.data();
    if (const auto f = fp_temp_write.fire()) {
      if (f.action == failpoint::Action::error)
        return false;  // injected ENOSPC/EIO before any byte landed
      if (f.action == failpoint::Action::torn)
        // A short write the filesystem claimed succeeded (lost tail
        // after a crash without fsync): the truncated entry gets
        // published and must be caught by the read-time checksum.
        bytes = bytes.substr(0, f.bits % w.size());
      if (f.action == failpoint::Action::delay)
        failpoint::sleep_for_bits(f.bits);
    }
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  if (const auto f = fp_rename.fire()) {
    if (f.action == failpoint::Action::error) {
      // Injected rename failure: same cleanup as the real one below.
      fs::remove(tmp, ec);
      return false;
    }
    if (f.action == failpoint::Action::torn) {
      // Torn replace (a non-atomic filesystem, or a crash mid-publish):
      // the destination ends up holding a prefix of the entry. Model it
      // by truncating the temp before the rename lands.
      fs::resize_file(tmp, f.bits % w.size(), ec);
    }
    if (f.action == failpoint::Action::delay)
      failpoint::sleep_for_bits(f.bits);
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  c_writes().add(1);

  // Injected index-write failure loses only advisory data: the entry
  // itself is already live, so the put still reports success.
  if (!group.empty() &&
      fp_group_write.fire().action == failpoint::Action::none) {
    // Read-modify-write of the advisory group index: newest key first,
    // deduplicated, capped. In-process writers serialize on group_mu_;
    // a cross-process race can drop a line, which only costs a missed
    // incremental-base candidate.
    std::lock_guard<std::mutex> lock{group_mu_};
    const fs::path gpath = group_path(kind, group);
    fs::create_directories(gpath.parent_path(), ec);
    const std::string hex = to_hex(key);
    std::vector<std::string> lines{hex};
    if (const auto existing = util::read_file(gpath.string())) {
      std::size_t pos = 0;
      while (pos < existing->size() && lines.size() < kMaxGroupIndexKeys) {
        std::size_t nl = existing->find('\n', pos);
        if (nl == std::string::npos) nl = existing->size();
        const std::string line = existing->substr(pos, nl - pos);
        pos = nl + 1;
        if (is_hex32(line) && line != hex) lines.push_back(line);
      }
    }
    const fs::path gtmp = gpath.parent_path() /
                          (".tmp-" + std::to_string(::getpid()) + "-" +
                           std::to_string(seq));
    std::ofstream out{gtmp, std::ios::binary | std::ios::trunc};
    if (out) {
      for (const auto& line : lines) out << line << '\n';
      out.flush();
      const bool ok = static_cast<bool>(out);
      out.close();
      if (ok)
        fs::rename(gtmp, gpath, ec);
      else
        fs::remove(gtmp, ec);
    }
  }

  if (options_.max_bytes > 0) sweep();
  return true;
}

void ArtifactStore::remove(std::string_view kind, const Key128& key) {
  std::error_code ec;
  fs::remove(entry_path(kind, key), ec);
}

std::vector<Key128> ArtifactStore::group_keys(std::string_view kind,
                                              std::string_view group) const {
  std::vector<Key128> keys;
  std::optional<std::string> data;
  {
    std::lock_guard<std::mutex> lock{group_mu_};
    data = util::read_file(group_path(kind, group).string());
  }
  if (!data) return keys;
  std::size_t pos = 0;
  while (pos < data->size()) {
    std::size_t nl = data->find('\n', pos);
    if (nl == std::string::npos) nl = data->size();
    const std::string_view line{data->data() + pos, nl - pos};
    pos = nl + 1;
    if (is_hex32(line)) keys.push_back(parse_hex32(line));
  }
  return keys;
}

StoreStats ArtifactStore::stats() const {
  StoreStats s;
  std::error_code ec;
  for (fs::recursive_directory_iterator it{options_.dir, ec}, end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec) || it->path().extension() != ".lvart")
      continue;
    s.entries += 1;
    const std::uint64_t bytes = it->file_size(ec);
    if (!ec) s.bytes += bytes;
    s.entries_by_kind[it->path().parent_path().filename().string()] += 1;
  }
  return s;
}

std::uint64_t ArtifactStore::clear() {
  std::uint64_t removed = 0;
  std::error_code ec;
  std::vector<fs::path> victims;
  for (fs::recursive_directory_iterator it{options_.dir, ec}, end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const auto ext = it->path().extension();
    if (ext == ".lvart" || ext == ".keys") victims.push_back(it->path());
  }
  for (const auto& p : victims) {
    removed += p.extension() == ".lvart" ? 1u : 0u;
    fs::remove(p, ec);
  }
  return removed;
}

void ArtifactStore::sweep() { sweep_with_pause({}); }

void ArtifactStore::sweep_with_pause(const std::function<void()>& pause) {
  if (options_.max_bytes == 0) return;
  struct EntryRef {
    fs::file_time_type mtime;
    std::string name;  // tie-break for deterministic order
    fs::path path;
    std::uint64_t bytes;
  };
  std::vector<EntryRef> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it{options_.dir, ec}, end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec) || it->path().extension() != ".lvart")
      continue;
    const std::uint64_t bytes = it->file_size(ec);
    if (ec) continue;
    const auto mtime = it->last_write_time(ec);
    if (ec) continue;
    entries.push_back({mtime, it->path().filename().string(), it->path(),
                       bytes});
    total += bytes;
  }
  if (total <= options_.max_bytes) return;
  std::sort(entries.begin(), entries.end(),
            [](const EntryRef& a, const EntryRef& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
            });
  if (pause) pause();  // test seam: a concurrent reader acts here
  for (const auto& e : entries) {
    if (total <= options_.max_bytes) break;
    // Open-then-stat before unlink: a hit in get() bumps the entry's
    // mtime, so an mtime newer than the one we sorted by means a reader
    // touched the entry after we picked victims — deleting it now could
    // yank it out from under that reader's (or a sibling process's)
    // checksum verification and waste a fresh recompute. Skip it; the
    // next sweep sees the settled mtime.
    const auto current = fs::last_write_time(e.path, ec);
    if (ec) continue;  // already gone — someone else reclaimed it
    if (current != e.mtime) {
      c_sweep_skipped_busy().add(1);
      continue;
    }
    if (fp_sweep_unlink.fire().action != failpoint::Action::none)
      continue;  // injected EPERM: entry survives until the next sweep
    fs::remove(e.path, ec);
    if (ec) continue;
    total -= e.bytes;
    c_evictions().add(1);
  }
}

namespace {
std::unique_ptr<ArtifactStore>& global_slot() {
  static std::unique_ptr<ArtifactStore> store;
  return store;
}
}  // namespace

ArtifactStore* global_store() { return global_slot().get(); }

void configure_global_store(StoreOptions options) {
  global_slot() = std::make_unique<ArtifactStore>(std::move(options));
}

void disable_global_store() { global_slot().reset(); }

std::filesystem::path default_cache_dir() {
  if (const char* dir = std::getenv("LVSIM_CACHE_DIR"); dir && *dir)
    return fs::path{dir};
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
    return fs::path{xdg} / "lvsim";
  if (const char* home = std::getenv("HOME"); home && *home)
    return fs::path{home} / ".cache" / "lvsim";
  return {};
}

}  // namespace lv::store
