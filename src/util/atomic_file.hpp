#pragma once
/// \file atomic_file.hpp
/// \brief The temp+fsync+atomic-rename write discipline, shared by every
/// durable artifact (`rdse.checkpoint.v1`, cache-database and journal
/// compaction).
///
/// All data-path syscalls are routed through util/faultfs so the
/// fault-injection tests can prove each failure mode leaves either the
/// previous file or the new file in place — never a half-written mix.

#include <string>
#include <string_view>

namespace rdse {

/// Write the whole buffer through the fault-injection shim, retrying real
/// partial writes; false on any (injected or real) failure.
[[nodiscard]] bool write_all_fd(int fd, std::string_view data);

/// Best-effort fsync of the directory holding `path`, so a just-committed
/// rename survives a crash. Not routed through faultfs: the fault harness
/// targets the data path, and a lost directory entry is indistinguishable
/// from a missing file, which every loader already handles.
void sync_parent_dir(const std::string& path);

/// Atomically replace `path` with `data`: write `path.tmp`, fsync, rename
/// over `path`, fsync the parent directory. Returns false — leaving the
/// previous file untouched where the OS permits — when any step fails;
/// never throws on I/O errors.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::string_view data);

}  // namespace rdse
