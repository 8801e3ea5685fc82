#include "obs/atomic_file.hpp"

#include <cstdio>
#include <string>

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace psched::obs {

namespace {

/// fsync the stdio stream's descriptor (best-effort on platforms without
/// one). A failed flush is fatal; a failed fsync is too — the caller must
/// not rename bytes the kernel has not accepted.
bool flush_and_sync(std::FILE* file) {
  if (std::fflush(file) != 0) return false;
#if defined(_WIN32)
  return _commit(_fileno(file)) == 0;
#else
  return ::fsync(::fileno(file)) == 0;
#endif
}

bool write_all(std::FILE* file, std::string_view content) {
  return content.empty() ||
         std::fwrite(content.data(), 1, content.size(), file) == content.size();
}

}  // namespace

bool write_file_atomic(const std::string& path, std::string_view content,
                       AtomicWriteFault fault) {
  const std::string temp = path + ".tmp";
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) return false;
  if (fault == AtomicWriteFault::kCrashBeforeRename) {
    // Crash simulation: a prefix reaches the temp file, the rename never
    // happens, and the destination keeps its previous content.
    (void)write_all(file, content.substr(0, content.size() / 2));
    std::fclose(file);
    return false;
  }
  bool ok = write_all(file, content) && flush_and_sync(file);
  ok = (std::fclose(file) == 0) && ok;
  if (!ok) {
    std::remove(temp.c_str());
    return false;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return false;
  }
  return true;
}

}  // namespace psched::obs
