// mini-Apache (§4.3).
//
// An HTTP server with mod_rewrite-style URL rewriting. The rewrite engine
// records each parenthesized capture's (start,end) offsets in a
// stack-allocated buffer "with enough room for ten captures. If there are
// more, Apache writes the corresponding pairs of offsets beyond the end of
// the buffer" — the paper's remotely exploitable memory error:
//
//   Standard          offsets overrun the frame; the smashed stack is the
//                     crash (child process segfaults after handling).
//   Bounds Check      the child terminates at the first out-of-bounds
//                     write; the parent forks a replacement (costly under
//                     attack load, §4.3.2).
//   Failure Oblivious extra offset pairs discarded. Replacements reference
//                     captures as single digits $0..$9 only, so the
//                     discarded data is never consulted: the response is
//                     byte-identical to the correct one.
//
// A WorkerPool of ApacheApp instances models the regenerating child-process
// pool. A restart is what a freshly forked child pays: config parse, rule
// compilation and a fresh Memory. The docroot belongs to the parent — the
// worker factory builds it once and every child reads the same copy.

#ifndef SRC_APPS_APACHE_H_
#define SRC_APPS_APACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/http.h"
#include "src/regex/regex.h"
#include "src/regex/rewrite.h"
#include "src/runtime/memory.h"
#include "src/vfs/vfs.h"

namespace fob {

class ApacheApp {
 public:
  // The vulnerable buffer holds ten (start,end) capture pairs (AP_MAX_REG_MATCH).
  static constexpr int kMaxCapturePairs = 10;

  // `docroot` must outlive the app (it is the parent's mmap'd content).
  // config_text holds "RewriteRule <pattern> <replacement>" lines; parsing
  // and compiling it is the startup cost a worker restart pays.
  ApacheApp(const PolicySpec& spec, const Vfs* docroot, const std::string& config_text);

  HttpResponse Handle(const HttpRequest& request);

  // Default server config: benign rules plus the >10-capture rule that a
  // crafted URL can reach, padded with filler rules so that worker restart
  // costs realistic initialization work.
  static std::string DefaultConfigText(int filler_rules = 40);

  uint64_t requests_served() const { return requests_served_; }
  size_t rule_count() const { return rules_.size(); }
  Memory& memory() { return memory_; }
  // Common-log-format lines, one per request, written through the log
  // buffer in program memory.
  const std::vector<std::string>& access_log() const { return access_log_; }

 private:
  // Runs the vulnerable rewrite: regex match (substrate), then the offset
  // copy through the fixed stack buffer, then replacement expansion using
  // the offsets read back from that buffer.
  std::optional<std::string> RewriteVulnerable(const std::string& url);

  void LogAccess(const HttpRequest& request, int status, size_t bytes);

  Memory memory_;
  const Vfs* docroot_;
  std::vector<RewriteRule> rules_;
  std::vector<std::string> access_log_;
  uint64_t requests_served_ = 0;
};

}  // namespace fob

#endif  // SRC_APPS_APACHE_H_
