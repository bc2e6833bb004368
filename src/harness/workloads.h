// Workload generators: the attack inputs from §4, and TrafficStreams — the
// uniform request sequences every harness drives servers with.
//
// A TrafficStream is a deterministic, seedable sequence of tagged
// ServerRequests (attack / legitimate / maintenance, per client id) that
// any server consumes through the ServerApp session API: the same stream
// machinery produces the §4 single-attack workloads (MakeAttackStream, the
// exact op sequence the paper's outcome matrix classifies), multi-attack
// streams that hit several error sites in one run (MakeMultiAttackStream,
// the Durieux-style interaction case), and sustained mixed traffic for the
// stability and throughput experiments (MakeTrafficStream).
//
// MakeServerApp is the matching construction side: it builds the ServerApp
// adapter for one server — which is also exactly the work a WorkerPool
// restart re-runs.

#ifndef SRC_HARNESS_WORKLOADS_H_
#define SRC_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/server_app.h"
#include "src/mail/message.h"
#include "src/net/http.h"
#include "src/runtime/manufactured.h"
#include "src/runtime/policy_spec.h"
#include "src/vfs/vfs.h"

namespace fob {

// ---- Traffic streams ----------------------------------------------------

struct TrafficStream {
  Server server = Server::kApache;
  std::vector<ServerRequest> requests;

  size_t CountTag(RequestTag tag) const;
};

// Builds one tagged request — the shared constructor for benches, examples
// and tests that compose their own streams (lines/payload/expect are set on
// the returned value when an op needs them).
ServerRequest MakeRequest(RequestTag tag, std::string op, std::string target = "",
                          std::string arg = "", std::string arg2 = "");

// The §4 attack workload as a stream: the documented attack input followed
// by the legitimate requests the paper's availability criterion checks —
// the exact op sequence RunAttackExperiment classifies.
TrafficStream MakeAttackStream(Server server);

// A stream that reaches the server's error sites several times / in
// combination within one run. Per-site policy assignments interact with
// stream composition (count-based policies like kThreshold most visibly),
// which is what the multi-attack sweep explores.
TrafficStream MakeMultiAttackStream(Server server);

// Sustained mixed traffic: `requests` rounds interleaved across `clients`
// client ids, with every round r satisfying (r % attack_period) <
// attacks_per_period attack-tagged (attack_period == 0 disables attacks).
// Deterministic from `seed`: the same options always yield the same
// stream, byte for byte.
struct StreamOptions {
  size_t requests = 100;
  size_t clients = 1;
  size_t attack_period = 0;
  size_t attacks_per_period = 1;
  uint64_t seed = 1;
};
TrafficStream MakeTrafficStream(Server server, const StreamOptions& options = {});

// ---- Server construction -------------------------------------------------

// What MakeServerApp builds each server with. The defaults are the §4
// attack configurations (startup is part of the attack where the paper says
// so: Pine's trigger sits in the mailbox, MC's blank config line fires at
// parse time). Serving setups override them (benign mailbox, clean config)
// so workers under crashing policies can at least start.
struct ServerSetup {
  size_t pine_mbox_legit = 6;
  bool pine_mbox_attack = true;
  size_t pine_body_bytes = 48;
  int apache_filler_rules = 40;
  bool mc_config_blank_lines = true;
  SequenceKind mc_sequence = SequenceKind::kPaper;
  // 2 reproduces the exact §4.6 INBOX pair; other values fill generically.
  size_t mutt_inbox_messages = 2;
};

std::unique_ptr<ServerApp> MakeServerApp(Server server, const PolicySpec& spec,
                                         const ServerSetup& setup = {});

// The reusable construction recipe for pool layers: what a WorkerPool runs
// to build one worker's adapter + shard, and re-runs on the crashing lane's
// own thread to replace it. Captures its configuration by value, so it is
// safe to invoke concurrently — the contract parallel dispatch relies on
// (src/net/README.md). The Apache factory builds its docroot once, here,
// and every worker it makes shares that one read-only, as a prefork
// parent's children do; MakeServerApp builds a fresh one per call.
std::function<std::unique_ptr<ServerApp>()> MakeServerAppFactory(
    Server server, const PolicySpec& spec, const ServerSetup& setup = {});

// The §4 attack configuration — what RunAttackExperiment and the sweep
// construct per run.
std::unique_ptr<ServerApp> MakeAttackServer(Server server, const PolicySpec& spec);

// ---- Pine -------------------------------------------------------------

// A From field with enough quotable characters that Pine's miscalculated
// buffer overflows by ~quoted/2 bytes (§4.2.1).
std::string MakePineAttackFrom(size_t quotable = 64);
// An mbox with `legit` ordinary messages and, optionally, one attack
// message (the paper's trigger sits in the mailbox at load time).
// body_bytes sizes each message body.
std::string MakePineMbox(size_t legit, bool include_attack, size_t body_bytes = 48);

// ---- Apache ------------------------------------------------------------

// A URL matching the >10-capture rewrite rule (§4.3.1).
std::string MakeApacheAttackUrl();
// Builds the docroot with the two pages Figure 3 measures: /index.html
// (small_bytes) and /files/big.bin (large_bytes).
Vfs MakeApacheDocroot(size_t small_bytes = 5 * 1024, size_t large_bytes = 830 * 1024);
HttpRequest MakeHttpGet(const std::string& path);

// ---- Sendmail ------------------------------------------------------------
// (MakeSendmailAttackAddress lives in src/apps/sendmail.h next to the
//  prescan port whose mechanics it mirrors.)

// A full attack SMTP session (HELO/MAIL-with-attack-address/QUIT).
std::vector<std::string> MakeSendmailAttackSession(size_t pairs = 32);
// A legitimate delivery session with a body of `body_bytes` bytes.
std::vector<std::string> MakeSendmailSession(const std::string& rcpt, size_t body_bytes);

// ---- Midnight Commander ---------------------------------------------------

// A .tgz whose absolute-target symlinks accumulate more than the link
// buffer holds (§4.5.1).
std::string MakeMcAttackTgz();
// A benign .tgz with files and resolvable-shaped symlinks.
std::string MakeMcBenignTgz();
// Populates `fs` with a directory tree of roughly `bytes` at `root` (the
// 31 MB tree Figure 5 copies). Returns the actual byte count. Thin alias
// for PopulateTree (src/vfs/vfs.h), kept for the benches' vocabulary.
uint64_t MakeMcTree(Vfs& fs, const std::string& root, uint64_t bytes);

// ---- Mutt ------------------------------------------------------------------

// A folder name whose UTF-8 -> UTF-7 conversion expands by more than 2x
// (§4.6.1); `blocks` scales the overflow size.
std::string MakeMuttAttackFolderName(size_t blocks = 24);
// A benign non-ASCII folder name (expansion < 2x).
std::string MakeMuttBenignFolderName();

// ---- Archive Inbox ---------------------------------------------------------

// A .tgz whose gzip header records a `name_chars`-long original name (FNAME
// field) — longer than ArchiveInboxApp::kNameBufSize, so the header copy
// overflows. The tar payload itself is honest: three regular files.
std::string MakeArchiveAttackTgz(size_t name_chars = 96);
// A benign .tgz: short recorded name, two files.
std::string MakeArchiveBenignTgz();
// Malformed-container traffic (the archive inbox's multi-attack stream):
// two oversized-FNAME uploads plus a truncated and a CRC-corrupted archive
// that must be rejected through the standard "Cannot open archive" path —
// the gzip-1.2.4 parse order means the vulnerable name copy runs even for
// archives the decompressor goes on to reject.
TrafficStream MakeMalformedArchiveStream();

// ---- Codec Gateway ---------------------------------------------------------

// CJK-dense UTF-8 (`units` three-byte codepoints) and its modified-UTF-7
// encoding — the decode bomb: the UTF-7 form is *shorter* than the UTF-8 it
// decodes to (8 base64 chars carry 9 output bytes), so the gateway's
// "decoding never expands" u7len+1 buffer comes up ~12% short.
std::string MakeCodecBombUtf8(size_t units = 60);
std::string MakeCodecBombUtf7(size_t units = 60);
// Integrity-checked transcode traffic (the codec gateway's multi-attack
// stream): decode bombs whose `expect` pins the reference output byte for
// byte. Only Boundless reproduces it through the undersized buffer — the
// assignment shape no §4 server's acceptability criterion demands.
TrafficStream MakeCodecBombStream();

}  // namespace fob

#endif  // SRC_HARNESS_WORKLOADS_H_
