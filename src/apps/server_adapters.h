// ServerApp adapters for the five §4 servers and the two post-paper
// additions (archive inbox, codec gateway).
//
// Each adapter owns one app instance (plus its native substrate — Mutt's
// IMAP server; Apache's docroot is shared read-only, see ApacheServer) and
// translates the uniform ServerRequest vocabulary onto the app's own
// methods, 1:1 and in order, so a request stream driven through an adapter
// performs *exactly* the simulated-memory operations the equivalent direct
// calls would (tests/test_server_app.cc pins that equivalence: identical
// responses, memlog contents and Outcome under all seven policies).
//
// The adapter also owns the §4 acceptability judgment for each op — the
// server-specific knowledge that used to be scattered through the harness:
// an attack GET is acceptable if it still gets a well-formed response, an
// attack MAIL if it is *rejected* with 553, an attack folder open if it
// *fails* through the server's standard error path. Workload-specific
// expectations (an index line count, a mailbox size) arrive in
// ServerRequest::expect so the adapters stay workload-agnostic.
//
// Op vocabulary (target/arg/arg2/lines/payload/expect per op):
//
//   Pine      index            expect: index line count
//             read             target: 0-based message index
//             compose          target: to, arg: subject, payload: body
//             reply            target: index, payload: body
//             forward          target: index, arg: to
//             move             target: index, arg: folder, expect: folder size after
//             quote            target: the From field (the §4.2 vulnerable path)
//             folder_size      target: folder, expect: size
//   Apache    get              target: path, expect: minimum body bytes (legit)
//   Sendmail  session          lines: client SMTP lines, expect: mailbox size after
//             wakeup           (the §4.4.4 everyday error)
//   MC        browse           payload: tgz bytes, expect: listing row count
//             mktree           target: root, arg: approximate bytes
//             copy|move        target: src, arg: dst
//             mkdir|delete     target: path
//             view             target: path
//   Mutt      open             target: UTF-8 folder name
//             read             target: folder, arg: 1-based index
//             move             target: from, arg: index, arg2: to
//             compose          target: folder, arg: to, arg2: subject, payload: body
//             forward          target: folder, arg: index, arg2: to
//   Archive   upload           target: slot, payload: tgz bytes, expect: stored file count
//             list             target: slot, expect: file count
//             extract          target: slot, arg: entry path
//             drop             target: slot
//   Codec     transcode        target: direction (u7to8|u8to7|b64enc|b64dec),
//                              arg: charset label, payload: input text,
//                              expect: exact output bytes (empty = don't check)

#ifndef SRC_APPS_SERVER_ADAPTERS_H_
#define SRC_APPS_SERVER_ADAPTERS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/apache.h"
#include "src/apps/archive_inbox.h"
#include "src/apps/codec_gateway.h"
#include "src/apps/mc.h"
#include "src/apps/mutt.h"
#include "src/apps/pine.h"
#include "src/apps/sendmail.h"
#include "src/apps/server_app.h"
#include "src/net/imap.h"
#include "src/vfs/vfs.h"

namespace fob {

class PineServer : public ServerApp {
 public:
  PineServer(const PolicySpec& spec, const std::string& mbox_text);
  ServerResponse Handle(const ServerRequest& request) override;
  Memory& memory() override { return app_.memory(); }
  PineApp& app() { return app_; }

 private:
  PineApp app_;
};

class ApacheServer : public ServerApp {
 public:
  // `docroot` is read-only: MakeServerAppFactory hands one to every worker
  // and crash replacement it builds, as a prefork parent's children inherit
  // its docroot.
  ApacheServer(const PolicySpec& spec, std::shared_ptr<const Vfs> docroot,
               const std::string& config_text);
  ServerResponse Handle(const ServerRequest& request) override;
  Memory& memory() override { return app_.memory(); }
  ApacheApp& app() { return app_; }

 private:
  // Shared with the other workers of the same factory; must outlive app_
  // (declared first).
  std::shared_ptr<const Vfs> docroot_;
  ApacheApp app_;
};

class SendmailServer : public ServerApp {
 public:
  explicit SendmailServer(const PolicySpec& spec);
  ServerResponse Handle(const ServerRequest& request) override;
  Memory& memory() override { return app_.memory(); }
  SendmailApp& app() { return app_; }

 private:
  SendmailApp app_;
};

class McServer : public ServerApp {
 public:
  McServer(const PolicySpec& spec, const std::string& config_text,
           SequenceKind sequence = SequenceKind::kPaper);
  ServerResponse Handle(const ServerRequest& request) override;
  Memory& memory() override { return app_.memory(); }
  McApp& app() { return app_; }

 private:
  McApp app_;
};

class MuttServer : public ServerApp {
 public:
  // `folders` seeds the adapter-owned IMAP server (native substrate).
  MuttServer(const PolicySpec& spec,
             std::vector<std::pair<std::string, std::vector<MailMessage>>> folders);
  ServerResponse Handle(const ServerRequest& request) override;
  Memory& memory() override { return app_.memory(); }
  MuttApp& app() { return app_; }

 private:
  ImapServer imap_;  // must outlive app_ (declared first)
  MuttApp app_;
};

class ArchiveServer : public ServerApp {
 public:
  explicit ArchiveServer(const PolicySpec& spec);
  ServerResponse Handle(const ServerRequest& request) override;
  Memory& memory() override { return app_.memory(); }
  ArchiveInboxApp& app() { return app_; }

 private:
  ArchiveInboxApp app_;
};

class CodecServer : public ServerApp {
 public:
  explicit CodecServer(const PolicySpec& spec);
  ServerResponse Handle(const ServerRequest& request) override;
  Memory& memory() override { return app_.memory(); }
  CodecGatewayApp& app() { return app_; }

 private:
  CodecGatewayApp app_;
};

}  // namespace fob

#endif  // SRC_APPS_SERVER_ADAPTERS_H_
