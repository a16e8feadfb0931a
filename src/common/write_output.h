// The one report writer behind the analysis tools (tracestats, profstats,
// dufs_lint). Header-only, so the tools use it without linking the libraries.
#pragma once

#include <cstdio>
#include <string>

namespace dufs {

// Writes `content` to `path`, or to stdout when `path` is empty. Returns
// false, after a "<tool>: cannot write <path>" warning, unless every byte was
// written and the close (file) or flush (stdout) succeeded, so a full disk or
// a closed pipe fails the run instead of leaving a truncated report.
inline bool WriteOutput(const char* tool, const std::string& path,
                        const std::string& content) {
  const bool to_stdout = path.empty();
  std::FILE* f = to_stdout ? stdout : std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (to_stdout) {
    ok = std::fflush(f) == 0 && std::ferror(f) == 0 && ok;
  } else if (f != nullptr && std::fclose(f) != 0) {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool,
                 to_stdout ? "stdout" : path.c_str());
  }
  return ok;
}

}  // namespace dufs
