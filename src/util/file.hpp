// Whole-file reads for every input the toolkit loads: netlists,
// techfiles and activity files (check::read_file) and artifact-store
// entries.
#pragma once

#include <optional>
#include <string>

namespace lv::util {

enum class ReadFailure { none, open, read };

// Reads the file at `path` into memory: a regular file takes one read()
// into a string sized from the file, a pipe grows the string as it
// reads. nullopt when the file cannot be opened or read; `failure`, when
// given, then says which.
std::optional<std::string> read_file(const std::string& path,
                                     ReadFailure* failure = nullptr);

}  // namespace lv::util
