// Standalone driver for the fuzz targets when libFuzzer is unavailable
// (the default local build: GCC has no -fsanitize=fuzzer). Replays every
// file in the given corpus directories through LLVMFuzzerTestOneInput,
// then optionally runs cheap deterministic mutations of each seed (mostly
// length-preserving, so binary seeds keep their field layout):
//
//   fuzz_netlist <corpus-dir-or-file>... [--mutations N] [--seed S]
//               [--artifact PATH]
//
// Exit 0 when every input ran clean; a crash/trap terminates the process
// (the sanitizer or trap reports the failure), after --artifact wrote the
// offending input for replay. With libFuzzer enabled (LVSIM_LIBFUZZER=ON)
// this file is not compiled; libFuzzer supplies main().
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/random.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The pending input is persisted *before* the run so a crash (which never
// returns) still leaves the reproducer on disk.
void save_artifact(const std::string& artifact,
                   const std::vector<std::uint8_t>& bytes) {
  if (artifact.empty()) return;
  std::ofstream out{artifact, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Length-preserving mutation: a bit flip (half the draws: a flip in the
// low byte of an index field is what most often still decodes), a byte
// overwrite, or an overwrite of four bytes at any offset with a 32-bit
// little-endian word, half the time a boundary value such as 0, 1 or
// 0xffffffff (when the four bytes happen to cover a u32 field, that
// value reaches count and index checks that random words overshoot).
// Every later field of a binary blob stays where its decoder expects it.
void mutate_in_place(std::vector<std::uint8_t>& bytes,
                     lv::util::Xoshiro256& rng) {
  const auto draw = rng.next_below(4);
  const auto choice = draw <= 1 ? 0 : bytes.size() >= 4 ? draw - 1 : 1;
  if (choice == 0) {  // flip a bit
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
  } else if (choice == 1) {  // overwrite a byte
    bytes[rng.next_below(bytes.size())] =
        static_cast<std::uint8_t>(rng.next_u64());
  } else {  // overwrite a word
    static constexpr std::uint32_t kBoundary[] = {
        0u, 1u, 2u, 3u, 4u, 0x7fu, 0xffu, 0x7fffffffu, 0x80000000u,
        0xffffffffu};
    const std::uint32_t word =
        rng.next_below(2) == 0
            ? kBoundary[rng.next_below(std::size(kBoundary))]
            : static_cast<std::uint32_t>(rng.next_u64());
    const std::size_t at = rng.next_below(bytes.size() - 3);
    for (std::size_t b = 0; b < 4; ++b)
      bytes[at + b] = static_cast<std::uint8_t>(word >> (8 * b));
  }
}

// Insert or delete one byte: shifts every later field, so a stacked run
// applies at most one of these.
void mutate_length(std::vector<std::uint8_t>& bytes,
                   lv::util::Xoshiro256& rng) {
  if (bytes.empty() || rng.next_below(2) == 0) {
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                     rng.next_below(bytes.size() + 1)),
                 static_cast<std::uint8_t>(rng.next_u64()));
  } else {
    bytes.erase(bytes.begin() +
                static_cast<std::ptrdiff_t>(rng.next_below(bytes.size())));
  }
}

// One stacked run: 1-4 length-preserving mutations (1 in half the runs,
// each further one half as likely: the strict decoders reject most
// single mutations already, so deep stacks rarely decode), and in one
// run of eight a single insert or delete at a random place in the stack.
void mutate(std::vector<std::uint8_t>& bytes, lv::util::Xoshiro256& rng) {
  std::uint64_t stack = 1;
  while (stack < 4 && rng.next_below(2) == 0) ++stack;
  const bool resize = bytes.empty() || rng.next_below(8) == 0;
  const auto resize_at = rng.next_below(stack);
  for (std::uint64_t s = 0; s < stack; ++s) {
    if (resize && s == resize_at) mutate_length(bytes, rng);
    if (!bytes.empty()) mutate_in_place(bytes, rng);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> inputs;
  int mutations = 0;
  std::uint64_t seed = 1;
  std::string artifact;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--mutations") mutations = std::atoi(value());
    else if (arg == "--seed") seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--artifact") artifact = value();
    else inputs.emplace_back(arg);
  }

  // Sorted replay: deterministic order regardless of directory iteration.
  std::vector<fs::path> files;
  for (const auto& in : inputs) {
    if (fs::is_directory(in)) {
      for (const auto& entry : fs::directory_iterator(in))
        if (entry.is_regular_file()) files.push_back(entry.path());
    } else if (fs::is_regular_file(in)) {
      files.push_back(in);
    } else {
      std::fprintf(stderr, "error: no such corpus input '%s'\n",
                   in.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::size_t runs = 0;
  lv::util::Xoshiro256 rng{seed};
  for (const auto& f : files) {
    const auto original = read_bytes(f);
    save_artifact(artifact, original);
    LLVMFuzzerTestOneInput(original.data(), original.size());
    ++runs;
    for (int m = 0; m < mutations; ++m) {
      auto mutated = original;
      // A few stacked mutations per run reaches deeper than single flips.
      mutate(mutated, rng);
      save_artifact(artifact, mutated);
      LLVMFuzzerTestOneInput(mutated.data(), mutated.size());
      ++runs;
    }
  }

  if (!artifact.empty()) fs::remove(artifact);  // clean exit: nothing to keep
  std::printf("%zu input(s) ran clean over %zu corpus file(s)\n", runs,
              files.size());
  return files.empty() ? 2 : 0;
}
