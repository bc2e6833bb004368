#include "src/harness/workloads.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "src/apps/apache.h"
#include "src/apps/mc.h"
#include "src/apps/server_adapters.h"
#include "src/archive/gzip.h"
#include "src/archive/tar.h"
#include "src/codec/base64.h"
#include "src/codec/utf7.h"
#include "src/codec/utf8.h"
#include "src/mail/mbox.h"

namespace fob {

size_t TrafficStream::CountTag(RequestTag tag) const {
  size_t count = 0;
  for (const ServerRequest& request : requests) {
    if (request.tag == tag) {
      ++count;
    }
  }
  return count;
}

ServerRequest MakeRequest(RequestTag tag, std::string op, std::string target,
                          std::string arg, std::string arg2) {
  ServerRequest request;
  request.tag = tag;
  request.op = std::move(op);
  request.target = std::move(target);
  request.arg = std::move(arg);
  request.arg2 = std::move(arg2);
  return request;
}

namespace {

// Shorthand keeps the stream definitions readable.
ServerRequest Req(RequestTag tag, std::string op, std::string target = "",
                  std::string arg = "", std::string arg2 = "") {
  return MakeRequest(tag, std::move(op), std::move(target), std::move(arg), std::move(arg2));
}

ServerRequest& Expect(ServerRequest& request, size_t value) {
  request.expect = std::to_string(value);
  return request;
}

// xorshift64: deterministic, seedable, good enough to shuffle op choices
// and client ids.
class StreamRng {
 public:
  explicit StreamRng(uint64_t seed) : state_(seed == 0 ? 0x9e3779b97f4a7c15ull : seed) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  uint64_t Next(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

}  // namespace

TrafficStream MakeAttackStream(Server server) {
  TrafficStream stream;
  stream.server = server;
  auto add = [&stream](ServerRequest request) { stream.requests.push_back(std::move(request)); };
  switch (server) {
    case Server::kPine: {
      // The attack message is *in the mailbox*: startup itself is the
      // attack; the index must still come up with every message listed.
      ServerRequest index = Req(RequestTag::kAttack, "index");
      add(Expect(index, 7));
      add(Req(RequestTag::kLegit, "read", "0"));
      ServerRequest compose = Req(RequestTag::kLegit, "compose", "friend0@example.org",
                                  "re: message 0");
      compose.payload = "thanks!\n";
      add(compose);
      ServerRequest move = Req(RequestTag::kLegit, "move", "0", "saved");
      add(Expect(move, 1));
      break;
    }
    case Server::kApache: {
      add(Req(RequestTag::kAttack, "get", MakeApacheAttackUrl()));
      ServerRequest legit = Req(RequestTag::kLegit, "get", "/index.html");
      add(Expect(legit, 4000));
      break;
    }
    case Server::kSendmail: {
      ServerRequest attack = Req(RequestTag::kAttack, "session");
      attack.lines = MakeSendmailAttackSession();
      add(attack);
      ServerRequest legit = Req(RequestTag::kLegit, "session");
      legit.lines = MakeSendmailSession("user@localhost", 64);
      add(Expect(legit, 1));
      add(Req(RequestTag::kMaintenance, "wakeup"));  // the everyday error
      break;
    }
    case Server::kMc: {
      ServerRequest browse = Req(RequestTag::kAttack, "browse");
      browse.payload = MakeMcAttackTgz();
      add(Expect(browse, 6));
      add(Req(RequestTag::kMaintenance, "mktree", "/home/user/tree",
              std::to_string(256 << 10)));
      add(Req(RequestTag::kLegit, "copy", "/home/user/tree", "/home/user/tree2"));
      add(Req(RequestTag::kLegit, "mkdir", "/home/user/newdir"));
      add(Req(RequestTag::kLegit, "move", "/home/user/tree2", "/home/user/tree3"));
      add(Req(RequestTag::kLegit, "delete", "/home/user/tree3"));
      break;
    }
    case Server::kMutt: {
      // Mutt is configured to open the attack folder at startup (§4.6.4).
      add(Req(RequestTag::kAttack, "open", MakeMuttAttackFolderName()));
      add(Req(RequestTag::kLegit, "open", "INBOX"));
      add(Req(RequestTag::kLegit, "read", "INBOX", "1"));
      add(Req(RequestTag::kLegit, "move", "INBOX", "1", "archive"));
      break;
    }
    case Server::kArchive: {
      // The oversized recorded name overflows the header copy; the upload
      // itself (which never depended on the name) must still store all
      // three files, and the slot must stay fully usable afterwards.
      ServerRequest upload = Req(RequestTag::kAttack, "upload", "drop0");
      upload.payload = MakeArchiveAttackTgz();
      add(Expect(upload, 3));
      ServerRequest list = Req(RequestTag::kLegit, "list", "drop0");
      add(Expect(list, 3));
      ServerRequest benign = Req(RequestTag::kLegit, "upload", "drop1");
      benign.payload = MakeArchiveBenignTgz();
      add(Expect(benign, 2));
      add(Req(RequestTag::kLegit, "extract", "drop0", "pkg/readme.txt"));
      add(Req(RequestTag::kLegit, "drop", "drop1"));
      break;
    }
    case Server::kCodec: {
      // The decode bomb overflows the undersized output buffer; the
      // availability criterion is that the gateway answers this and every
      // later conversion (expect pins exact bytes only on the legit ops —
      // a truncated bomb reply is the absorbed-attack case, not a failure).
      ServerRequest bomb = Req(RequestTag::kAttack, "transcode", "u7to8", "utf7");
      bomb.payload = MakeCodecBombUtf7();
      add(bomb);
      ServerRequest legit = Req(RequestTag::kLegit, "transcode", "u7to8", "utf7");
      legit.payload = "Hello&AOk-!";
      legit.expect = *Utf7ToUtf8(legit.payload);
      add(legit);
      ServerRequest enc = Req(RequestTag::kLegit, "transcode", "b64enc", "b64");
      enc.payload = "failure oblivious";
      enc.expect = Base64Encode(enc.payload);
      add(enc);
      ServerRequest back = Req(RequestTag::kLegit, "transcode", "u8to7", "utf8");
      back.payload = MakeMuttBenignFolderName();
      back.expect = *Utf8ToUtf7(back.payload);
      add(back);
      break;
    }
  }
  return stream;
}

TrafficStream MakeMultiAttackStream(Server server) {
  TrafficStream stream;
  stream.server = server;
  auto add = [&stream](ServerRequest request) { stream.requests.push_back(std::move(request)); };
  switch (server) {
    case Server::kPine: {
      // Every move rebuilds the index with the attack message still in the
      // inbox, so each one re-runs the §4.2 overflow: three error bursts in
      // one session (startup + two moves).
      ServerRequest index = Req(RequestTag::kAttack, "index");
      add(Expect(index, 7));
      ServerRequest move1 = Req(RequestTag::kAttack, "move", "1", "saved");
      add(Expect(move1, 1));
      ServerRequest move2 = Req(RequestTag::kAttack, "move", "1", "saved");
      add(Expect(move2, 2));
      add(Req(RequestTag::kLegit, "read", "0"));
      ServerRequest compose = Req(RequestTag::kLegit, "compose", "friend0@example.org",
                                  "re: message 0");
      compose.payload = "thanks!\n";
      add(compose);
      break;
    }
    case Server::kApache: {
      for (int i = 0; i < 3; ++i) {
        add(Req(RequestTag::kAttack, "get", MakeApacheAttackUrl()));
      }
      ServerRequest small = Req(RequestTag::kLegit, "get", "/index.html");
      add(Expect(small, 4000));
      add(Req(RequestTag::kLegit, "get", "/files/big.bin"));
      break;
    }
    case Server::kSendmail: {
      // Four long attack sessions: ~6000 invalid stores at the prescan
      // site, enough to take a per-site kThreshold assignment over its
      // error budget — which a single §4 attack session never does. That
      // is the stream/assignment interaction the multi-attack sweep pins.
      for (int i = 0; i < 4; ++i) {
        ServerRequest attack = Req(RequestTag::kAttack, "session");
        attack.lines = MakeSendmailAttackSession(/*pairs=*/1500);
        add(attack);
        add(Req(RequestTag::kMaintenance, "wakeup"));
      }
      ServerRequest legit = Req(RequestTag::kLegit, "session");
      legit.lines = MakeSendmailSession("user@localhost", 64);
      add(Expect(legit, 1));
      break;
    }
    case Server::kMc: {
      for (int i = 0; i < 2; ++i) {
        ServerRequest browse = Req(RequestTag::kAttack, "browse");
        browse.payload = MakeMcAttackTgz();
        add(Expect(browse, 6));
      }
      add(Req(RequestTag::kMaintenance, "mktree", "/home/user/tree",
              std::to_string(128 << 10)));
      add(Req(RequestTag::kLegit, "copy", "/home/user/tree", "/home/user/tree2"));
      add(Req(RequestTag::kLegit, "delete", "/home/user/tree2"));
      break;
    }
    case Server::kMutt: {
      add(Req(RequestTag::kAttack, "open", MakeMuttAttackFolderName()));
      add(Req(RequestTag::kAttack, "open", MakeMuttAttackFolderName(/*blocks=*/40)));
      add(Req(RequestTag::kLegit, "open", "INBOX"));
      add(Req(RequestTag::kLegit, "read", "INBOX", "1"));
      break;
    }
    case Server::kArchive:
      return MakeMalformedArchiveStream();
    case Server::kCodec:
      return MakeCodecBombStream();
  }
  return stream;
}

TrafficStream MakeTrafficStream(Server server, const StreamOptions& options) {
  TrafficStream stream;
  stream.server = server;
  StreamRng rng(options.seed);
  std::string mc_pending_copy;  // generator state: a copy awaiting deletion
  bool mc_tree_made = false;
  std::string archive_pending_slot;  // generator state: a slot awaiting drop
  for (size_t round = 0; round < options.requests; ++round) {
    uint64_t client = options.clients == 0 ? 0 : rng.Next(options.clients);
    bool attack = options.attack_period > 0 &&
                  (round % options.attack_period) < options.attacks_per_period;
    RequestTag tag = attack ? RequestTag::kAttack : RequestTag::kLegit;
    ServerRequest request;
    switch (server) {
      case Server::kPine: {
        if (attack) {
          // The per-request form of the §4.2 trigger: quoting an attack
          // From field through the undersized index buffer.
          request = Req(tag, "quote", MakePineAttackFrom());
        } else if (rng.Next(3) == 0) {
          request = Req(tag, "compose", "peer@example.org", "ping");
          request.payload = "pong\n";
        } else {
          request = Req(tag, "read", std::to_string(rng.Next(5)));
        }
        break;
      }
      case Server::kApache: {
        request = Req(tag, "get", attack ? MakeApacheAttackUrl()
                                         : (rng.Next(3) == 0 ? "/files/big.bin"
                                                             : "/index.html"));
        break;
      }
      case Server::kSendmail: {
        // The daemon wakes up every round — the everyday error (§4.4.4).
        ServerRequest wakeup = Req(RequestTag::kMaintenance, "wakeup");
        wakeup.client_id = client;
        stream.requests.push_back(std::move(wakeup));
        request = Req(tag, "session");
        request.lines = attack ? MakeSendmailAttackSession()
                               : MakeSendmailSession("user@localhost",
                                                     64 + rng.Next(3) * 128);
        break;
      }
      case Server::kMc: {
        if (!mc_tree_made) {
          ServerRequest mktree = Req(RequestTag::kMaintenance, "mktree", "/home/files",
                                     std::to_string(256 << 10));
          mktree.client_id = client;
          stream.requests.push_back(std::move(mktree));
          mc_tree_made = true;
        }
        if (attack) {
          request = Req(tag, "browse");
          request.payload = MakeMcAttackTgz();
          request.expect = "6";
        } else if (mc_pending_copy.empty()) {
          mc_pending_copy = "/home/copy" + std::to_string(round);
          request = Req(tag, "copy", "/home/files", mc_pending_copy);
        } else {
          request = Req(tag, "delete", mc_pending_copy);
          mc_pending_copy.clear();
        }
        break;
      }
      case Server::kMutt: {
        if (attack) {
          request = Req(tag, "open", MakeMuttAttackFolderName());
        } else if (rng.Next(2) == 0) {
          request = Req(tag, "open", "INBOX");
        } else {
          request = Req(tag, "read", "INBOX", "1");
        }
        break;
      }
      case Server::kArchive: {
        if (attack) {
          request = Req(tag, "upload", "evil");
          request.payload = MakeArchiveAttackTgz();
          request.expect = "3";
        } else if (archive_pending_slot.empty()) {
          archive_pending_slot = "slot" + std::to_string(round);
          request = Req(tag, "upload", archive_pending_slot);
          request.payload = MakeArchiveBenignTgz();
          request.expect = "2";
        } else if (rng.Next(2) == 0) {
          request = Req(tag, "list", archive_pending_slot);
          request.expect = "2";
        } else {
          request = Req(tag, "drop", archive_pending_slot);
          archive_pending_slot.clear();
        }
        break;
      }
      case Server::kCodec: {
        if (attack) {
          // Sustained traffic judges continuing service, not byte equality,
          // so the bomb's expect stays empty (the §4-style criterion).
          request = Req(tag, "transcode", "u7to8", "utf7");
          request.payload = MakeCodecBombUtf7();
        } else if (rng.Next(3) == 0) {
          request = Req(tag, "transcode", "u7to8", "utf7");
          request.payload = "Hello&AOk-!";
          request.expect = *Utf7ToUtf8(request.payload);
        } else if (rng.Next(2) == 0) {
          request = Req(tag, "transcode", "b64enc", "b64");
          request.payload = "sustained traffic";
          request.expect = Base64Encode(request.payload);
        } else {
          request = Req(tag, "transcode", "b64dec", "b64");
          request.payload = Base64Encode("sustained traffic");
          request.expect = "sustained traffic";
        }
        break;
      }
    }
    request.client_id = client;
    stream.requests.push_back(std::move(request));
  }
  return stream;
}

namespace {

// Config parse and rule compilation run per worker: that is the restart
// work apache.h models. The docroot is the parent's.
std::unique_ptr<ServerApp> MakeApacheServer(const PolicySpec& spec,
                                            std::shared_ptr<const Vfs> docroot,
                                            const ServerSetup& setup) {
  return std::make_unique<ApacheServer>(spec, std::move(docroot),
                                        ApacheApp::DefaultConfigText(setup.apache_filler_rules));
}

}  // namespace

std::unique_ptr<ServerApp> MakeServerApp(Server server, const PolicySpec& spec,
                                         const ServerSetup& setup) {
  switch (server) {
    case Server::kPine:
      return std::make_unique<PineServer>(
          spec, MakePineMbox(setup.pine_mbox_legit, setup.pine_mbox_attack,
                             setup.pine_body_bytes));
    case Server::kApache:
      return MakeApacheServer(spec, std::make_shared<const Vfs>(MakeApacheDocroot()), setup);
    case Server::kSendmail:
      return std::make_unique<SendmailServer>(spec);
    case Server::kMc:
      return std::make_unique<McServer>(
          spec, McApp::DefaultConfigText(setup.mc_config_blank_lines), setup.mc_sequence);
    case Server::kMutt: {
      std::vector<std::pair<std::string, std::vector<MailMessage>>> folders;
      if (setup.mutt_inbox_messages == 2) {
        // The exact §4.6 INBOX pair, so the attack experiment's pager
        // renders byte-identical content to the legacy direct-call setup.
        folders.emplace_back(
            "INBOX", std::vector<MailMessage>{
                         MailMessage::Make("a@b", "me@here", "hello", "body\n"),
                         MailMessage::Make("c@d", "me@here", "again", "more\n")});
      } else {
        std::vector<MailMessage> inbox;
        inbox.reserve(setup.mutt_inbox_messages);
        for (size_t i = 0; i < setup.mutt_inbox_messages; ++i) {
          inbox.push_back(MailMessage::Make("peer@example.org", "me@here", "m", "b\n"));
        }
        folders.emplace_back("INBOX", std::move(inbox));
      }
      folders.emplace_back("archive", std::vector<MailMessage>{});
      return std::make_unique<MuttServer>(spec, std::move(folders));
    }
    case Server::kArchive:
      return std::make_unique<ArchiveServer>(spec);
    case Server::kCodec:
      return std::make_unique<CodecServer>(spec);
  }
  return nullptr;
}

std::function<std::unique_ptr<ServerApp>()> MakeServerAppFactory(Server server,
                                                                 const PolicySpec& spec,
                                                                 const ServerSetup& setup) {
  if (server == Server::kApache) {
    std::shared_ptr<const Vfs> docroot = std::make_shared<const Vfs>(MakeApacheDocroot());
    return [spec, setup, docroot] { return MakeApacheServer(spec, docroot, setup); };
  }
  return [server, spec, setup] { return MakeServerApp(server, spec, setup); };
}

std::unique_ptr<ServerApp> MakeAttackServer(Server server, const PolicySpec& spec) {
  return MakeServerApp(server, spec, ServerSetup{});
}

// ---- Pine ----------------------------------------------------------------

std::string MakePineAttackFrom(size_t quotable) {
  // "attacker" <\\\\\\...@evil.example> — plenty of characters Pine quotes.
  std::string from = "\"attacker\" <";
  from.append(quotable, '\\');
  from += "@evil.example>";
  return from;
}

std::string MakePineMbox(size_t legit, bool include_attack, size_t body_bytes) {
  std::vector<MailMessage> messages;
  messages.reserve(legit + 1);
  for (size_t i = 0; i < legit; ++i) {
    std::string body = "Hello number " + std::to_string(i) + "\n";
    while (body.size() < body_bytes) {
      body += "lorem ipsum dolor sit amet, consectetur adipiscing elit\n";
    }
    messages.push_back(MailMessage::Make("friend" + std::to_string(i) + "@example.org",
                                         "user@local", "message " + std::to_string(i),
                                         std::move(body)));
  }
  if (include_attack) {
    MailMessage attack = MailMessage::Make(MakePineAttackFrom(), "user@local",
                                           "you have won", "click here\n");
    messages.insert(messages.begin() + static_cast<ptrdiff_t>(messages.size() / 2), attack);
  }
  return SerializeMbox(messages);
}

// ---- Apache ---------------------------------------------------------------

std::string MakeApacheAttackUrl() {
  // Twelve '-'-separated segments: matches the 12-capture rule, so the
  // vulnerable copy writes 12 offset pairs into the 10-pair buffer.
  return "/captures/a-b-c-d-e-f-g-h-i-j-k-l";
}

Vfs MakeApacheDocroot(size_t small_bytes, size_t large_bytes) {
  Vfs docroot;
  std::string small_page = "<html><head><title>research project</title></head><body>";
  while (small_page.size() + 32 < small_bytes) {
    small_page += "<p>publications and software</p>";
  }
  small_page += "</body></html>";
  docroot.WriteFile("/index.html", std::move(small_page), true);
  // Byte i is 'A' + i % 61: write one period, then double by block copies.
  // Every copy starts at offset 0 and lands at a multiple of 61, so the
  // phase holds.
  constexpr size_t kPeriod = 61;
  std::string big;
  big.reserve(large_bytes);
  for (size_t i = 0; i < std::min(kPeriod, large_bytes); ++i) {
    big.push_back(static_cast<char>('A' + i));
  }
  while (big.size() < large_bytes) {
    big.append(big, 0, std::min(big.size(), large_bytes - big.size()));
  }
  docroot.WriteFile("/files/big.bin", std::move(big), true);
  docroot.WriteFile("/docs/flexc.html", "<html><body>docs</body></html>", true);
  docroot.WriteFile("/rewritten/a/b/c", "capture target page", true);
  return docroot;
}

HttpRequest MakeHttpGet(const std::string& path) {
  HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.version = "HTTP/1.0";
  request.headers.emplace_back("Host", "www.flexc.csail.mit.edu");
  return request;
}

// ---- Sendmail ---------------------------------------------------------------

std::vector<std::string> MakeSendmailAttackSession(size_t pairs) {
  // The attack address needs the prescan port's mechanics; keep the string
  // construction local to avoid a dependency cycle with apps/.
  std::string address(63, 'a');
  for (size_t i = 0; i < pairs; ++i) {
    address += "\\\\\xff";
  }
  return {
      "HELO attacker.example",
      "MAIL FROM:<" + address + ">",
      "QUIT",
  };
}

std::vector<std::string> MakeSendmailSession(const std::string& rcpt, size_t body_bytes) {
  std::vector<std::string> lines = {
      "HELO client.example",
      "MAIL FROM:<sender@client.example>",
      "RCPT TO:<" + rcpt + ">",
      "DATA",
  };
  std::string body_line(72, 'm');
  size_t written = 0;
  while (written < body_bytes) {
    size_t take = std::min(body_line.size(), body_bytes - written);
    lines.push_back(body_line.substr(0, take));
    written += take;
  }
  if (body_bytes == 0) {
    lines.push_back("hi");
  }
  lines.push_back(".");
  lines.push_back("QUIT");
  return lines;
}

// ---- Midnight Commander ------------------------------------------------------

std::string MakeMcAttackTgz() {
  // Several symlinks with long multi-component absolute targets: their
  // component names accumulate in the 64-byte link buffer and overflow it
  // by the second/third link.
  std::vector<TarEntry> entries;
  entries.push_back(TarEntry::Directory("pkg/"));
  entries.push_back(TarEntry::File("pkg/readme.txt", "malicious archive\n"));
  for (int i = 0; i < 4; ++i) {
    std::string target = "/opt/verylongcomponentname" + std::to_string(i) +
                         "/anotherlongcomponent/finaltarget" + std::to_string(i);
    entries.push_back(TarEntry::Symlink("pkg/link" + std::to_string(i), target));
  }
  return GzipStore(WriteTar(entries));
}

std::string MakeMcBenignTgz() {
  std::vector<TarEntry> entries;
  entries.push_back(TarEntry::Directory("pkg/"));
  entries.push_back(TarEntry::File("pkg/a.txt", "file a\n"));
  entries.push_back(TarEntry::File("pkg/b.txt", "file b\n"));
  entries.push_back(TarEntry::Symlink("pkg/s", "/usr/doc"));  // short: boring path
  return GzipStore(WriteTar(entries));
}

uint64_t MakeMcTree(Vfs& fs, const std::string& root, uint64_t bytes) {
  return PopulateTree(fs, root, bytes);
}

// ---- Mutt ---------------------------------------------------------------------

std::string MakeMuttAttackFolderName(size_t blocks) {
  // Alternating control characters and ASCII: each control char costs
  // '&' + 3 base64 chars + '-' = 5 output bytes for 1 input byte, ratio 3x
  // — well past the 2x Mutt allocated (§4.6.1).
  std::string name = "mail/";
  for (size_t i = 0; i < blocks; ++i) {
    name += '\x01';
    name += 'a';
  }
  return name;
}

std::string MakeMuttBenignFolderName() {
  // "archive/<CJK><CJK>" — expansion stays under 2x because the wide chars
  // share one shift sequence.
  return "archive/" + Utf8Encode(0x65e5) + Utf8Encode(0x672c) + Utf8Encode(0x8a9e);
}

// ---- Archive Inbox ---------------------------------------------------------

std::string MakeArchiveAttackTgz(size_t name_chars) {
  std::vector<TarEntry> entries;
  entries.push_back(TarEntry::Directory("pkg/"));
  entries.push_back(TarEntry::File("pkg/readme.txt", "uploaded archive\n"));
  entries.push_back(TarEntry::File("pkg/data.bin", std::string(256, 'd')));
  entries.push_back(TarEntry::File("pkg/notes/today.txt", "remember the milk\n"));
  // A deeply nested recorded path — the kind of original name a desktop
  // archiver happily embeds, and longer than the inbox's name work area.
  std::string name;
  while (name.size() < name_chars) {
    name += "home-backup-final-v2/";
  }
  name.resize(name_chars);
  return GzipStoreWithName(WriteTar(entries), name);
}

std::string MakeArchiveBenignTgz() {
  std::vector<TarEntry> entries;
  entries.push_back(TarEntry::Directory("pkg/"));
  entries.push_back(TarEntry::File("pkg/a.txt", "file a\n"));
  entries.push_back(TarEntry::File("pkg/b.txt", "file b\n"));
  return GzipStoreWithName(WriteTar(entries), "pkg.tar");
}

TrafficStream MakeMalformedArchiveStream() {
  TrafficStream stream;
  stream.server = Server::kArchive;
  auto add = [&stream](ServerRequest request) { stream.requests.push_back(std::move(request)); };
  // Two overflow depths at the FNAME site (count-based per-site assignments
  // see different error volumes), then two containers the decompressor
  // rejects — whose headers the vulnerable copy has already parsed by then.
  ServerRequest deep = Req(RequestTag::kAttack, "upload", "inboxA");
  deep.payload = MakeArchiveAttackTgz(/*name_chars=*/64);
  add(Expect(deep, 3));
  ServerRequest deeper = Req(RequestTag::kAttack, "upload", "inboxA");
  deeper.payload = MakeArchiveAttackTgz(/*name_chars=*/96);
  add(Expect(deeper, 3));
  ServerRequest truncated = Req(RequestTag::kAttack, "upload", "inboxB");
  truncated.payload = MakeArchiveAttackTgz().substr(0, 20);
  add(truncated);
  ServerRequest corrupt = Req(RequestTag::kAttack, "upload", "inboxB");
  corrupt.payload = MakeArchiveAttackTgz();
  corrupt.payload[corrupt.payload.size() - 5] ^= 0x20;  // stomp the CRC trailer
  add(corrupt);
  ServerRequest benign = Req(RequestTag::kLegit, "upload", "inboxC");
  benign.payload = MakeArchiveBenignTgz();
  add(Expect(benign, 2));
  ServerRequest list = Req(RequestTag::kLegit, "list", "inboxA");
  add(Expect(list, 3));
  add(Req(RequestTag::kLegit, "extract", "inboxC", "pkg/a.txt"));
  add(Req(RequestTag::kLegit, "drop", "inboxC"));
  return stream;
}

// ---- Codec Gateway ---------------------------------------------------------

std::string MakeCodecBombUtf8(size_t units) {
  static constexpr uint32_t kCjk[] = {0x65e5, 0x672c, 0x8a9e};
  std::string out;
  out.reserve(units * 3);
  for (size_t i = 0; i < units; ++i) {
    out += Utf8Encode(kCjk[i % 3]);
  }
  return out;
}

std::string MakeCodecBombUtf7(size_t units) {
  // The reference encoder is exact, so the bomb and its expected decode are
  // the same value seen through the two codecs.
  return *Utf8ToUtf7(MakeCodecBombUtf8(units));
}

TrafficStream MakeCodecBombStream() {
  TrafficStream stream;
  stream.server = Server::kCodec;
  auto add = [&stream](ServerRequest request) { stream.requests.push_back(std::move(request)); };
  // Integrity-checking clients: each bomb's expect pins the reference
  // output byte for byte, so truncated (Failure Oblivious) and garbled
  // (Wrap) replies are unacceptable — only Boundless passes at this site.
  for (size_t units : {size_t{60}, size_t{40}}) {
    ServerRequest bomb = Req(RequestTag::kAttack, "transcode", "u7to8", "utf7");
    bomb.payload = MakeCodecBombUtf7(units);
    bomb.expect = MakeCodecBombUtf8(units);
    add(bomb);
  }
  ServerRequest legit = Req(RequestTag::kLegit, "transcode", "u7to8", "utf7");
  legit.payload = "Hello&AOk-!";
  legit.expect = *Utf7ToUtf8(legit.payload);
  add(legit);
  ServerRequest enc = Req(RequestTag::kLegit, "transcode", "b64enc", "b64");
  enc.payload = "failure oblivious";
  enc.expect = Base64Encode(enc.payload);
  add(enc);
  ServerRequest back = Req(RequestTag::kLegit, "transcode", "u8to7", "utf8");
  back.payload = MakeMuttBenignFolderName();
  back.expect = *Utf8ToUtf7(back.payload);
  add(back);
  return stream;
}

}  // namespace fob
