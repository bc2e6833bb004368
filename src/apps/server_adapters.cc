#include "src/apps/server_adapters.h"

#include <cstdlib>

namespace fob {

namespace {

uint64_t ParseU64(const std::string& s) {
  return s.empty() ? 0 : std::strtoull(s.c_str(), nullptr, 10);
}

ServerResponse UnknownOp(const ServerRequest& request) {
  ServerResponse response;
  response.error = "unknown op \"" + request.op + "\"";
  return response;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

// ---- Pine -----------------------------------------------------------------

PineServer::PineServer(const PolicySpec& spec, const std::string& mbox_text)
    : app_(spec, mbox_text) {}

ServerResponse PineServer::Handle(const ServerRequest& request) {
  ServerResponse response;
  if (request.op == "index") {
    response.lines = app_.IndexLines();
    response.ok = true;
    // Acceptability (§4.2.2): the index came up with every message listed.
    response.acceptable =
        request.expect.empty() || response.lines.size() == ParseU64(request.expect);
    return response;
  }
  if (request.op == "quote") {
    // The §4.2 vulnerable path directly: quoting a From field for the index.
    response.body = app_.QuoteFromVulnerable(request.target);
    response.ok = true;
    response.acceptable = true;  // surviving the quote is the criterion
    return response;
  }
  if (request.op == "folder_size") {
    response.body = std::to_string(app_.FolderSize(request.target));
    response.ok = true;
    response.acceptable = request.expect.empty() || response.body == request.expect;
    return response;
  }
  PineApp::Result result;
  if (request.op == "read") {
    result = app_.ReadMessage(ParseU64(request.target));
  } else if (request.op == "compose") {
    result = app_.Compose(request.target, request.arg, request.payload);
  } else if (request.op == "reply") {
    result = app_.Reply(ParseU64(request.target), request.payload);
  } else if (request.op == "forward") {
    result = app_.Forward(ParseU64(request.target), request.arg);
  } else if (request.op == "move") {
    result = app_.MoveMessage(ParseU64(request.target), request.arg);
  } else {
    return UnknownOp(request);
  }
  response.ok = result.ok;
  response.body = result.display;
  response.error = result.error;
  response.acceptable = result.ok;
  if (request.op == "move" && !request.expect.empty()) {
    response.acceptable =
        response.acceptable && app_.FolderSize(request.arg) == ParseU64(request.expect);
  }
  return response;
}

// ---- Apache ---------------------------------------------------------------

ApacheServer::ApacheServer(const PolicySpec& spec, std::shared_ptr<const Vfs> docroot,
                           const std::string& config_text)
    : docroot_(std::move(docroot)), app_(spec, docroot_.get(), config_text) {}

ServerResponse ApacheServer::Handle(const ServerRequest& request) {
  if (request.op != "get") {
    return UnknownOp(request);
  }
  HttpRequest get;
  get.method = "GET";
  get.path = request.target;
  get.version = "HTTP/1.0";
  get.headers.emplace_back("Host", "www.flexc.csail.mit.edu");
  HttpResponse http = app_.Handle(get);
  ServerResponse response;
  response.status = http.status;
  response.body = http.body;
  response.ok = http.status == 200;
  if (request.tag == RequestTag::kAttack) {
    // Acceptable (§4.3.2): the attack request got a well-formed HTTP
    // response — under Failure Oblivious it is byte-identical to the
    // correct one; under Wrap the redirected writes may degrade it to a
    // 404, which still leaves every legitimate user unaffected.
    response.acceptable = http.status == 200 || http.status == 404;
  } else {
    // A legitimate fetch must be served in full; `expect` carries the
    // minimum body size when the workload pins one.
    response.acceptable =
        http.status == 200 &&
        (request.expect.empty() || http.body.size() > ParseU64(request.expect));
  }
  return response;
}

// ---- Sendmail -------------------------------------------------------------

SendmailServer::SendmailServer(const PolicySpec& spec) : app_(spec) {}

ServerResponse SendmailServer::Handle(const ServerRequest& request) {
  ServerResponse response;
  if (request.op == "wakeup") {
    app_.DaemonWakeup();  // §4.4.4: one (benign) memory error per call
    response.ok = true;
    response.acceptable = true;
    return response;
  }
  if (request.op != "session") {
    return UnknownOp(request);
  }
  response.lines = app_.HandleSession(request.lines);
  bool closed = !response.lines.empty() && StartsWith(response.lines.back(), "221");
  response.ok = closed;
  if (request.tag == RequestTag::kAttack) {
    // Acceptable (§4.4.2): the attack MAIL command was *rejected* (553) and
    // the session continued to QUIT.
    bool rejected = false;
    for (const std::string& line : response.lines) {
      if (StartsWith(line, "553")) {
        rejected = true;
      }
    }
    response.acceptable = rejected && closed;
  } else {
    response.acceptable = closed && (request.expect.empty() ||
                                     app_.local_mailbox().size() == ParseU64(request.expect));
  }
  return response;
}

// ---- Midnight Commander ---------------------------------------------------

McServer::McServer(const PolicySpec& spec, const std::string& config_text,
                   SequenceKind sequence)
    : app_(spec, config_text, sequence) {}

ServerResponse McServer::Handle(const ServerRequest& request) {
  ServerResponse response;
  if (request.op == "browse") {
    McApp::ArchiveListing listing = app_.BrowseTgz(request.payload);
    response.lines = listing.rows;
    response.error = listing.error;
    response.ok = listing.ok;
    // Acceptable (§4.5.2): the browse returned a listing — dangling
    // symlinks shown is the anticipated case.
    response.acceptable =
        listing.ok &&
        (request.expect.empty() || listing.rows.size() == ParseU64(request.expect));
    return response;
  }
  if (request.op == "mktree") {
    uint64_t written = PopulateTree(app_.fs(), request.target, ParseU64(request.arg));
    response.body = std::to_string(written);
    response.ok = true;
    response.acceptable = true;
    return response;
  }
  if (request.op == "view") {
    auto contents = app_.View(request.target);
    response.ok = contents.has_value();
    if (contents) {
      response.body = *contents;
    }
    response.acceptable = response.ok;
    return response;
  }
  bool ok = false;
  if (request.op == "copy") {
    ok = app_.Copy(request.target, request.arg);
  } else if (request.op == "move") {
    ok = app_.Move(request.target, request.arg);
  } else if (request.op == "mkdir") {
    ok = app_.MkDir(request.target);
  } else if (request.op == "delete") {
    ok = app_.Delete(request.target);
  } else {
    return UnknownOp(request);
  }
  response.ok = ok;
  response.acceptable = ok;
  return response;
}

// ---- Mutt -----------------------------------------------------------------

MuttServer::MuttServer(const PolicySpec& spec,
                       std::vector<std::pair<std::string, std::vector<MailMessage>>> folders)
    : app_(spec, &imap_) {
  for (auto& [name, messages] : folders) {
    imap_.AddFolderUtf8(name, std::move(messages));
  }
}

ServerResponse MuttServer::Handle(const ServerRequest& request) {
  MuttApp::Result result;
  bool attack_open = false;
  if (request.op == "open") {
    result = app_.OpenFolder(request.target);
    attack_open = request.tag == RequestTag::kAttack;
  } else if (request.op == "read") {
    result = app_.ReadMessage(request.target, ParseU64(request.arg));
  } else if (request.op == "move") {
    result = app_.MoveMessage(request.target, ParseU64(request.arg), request.arg2);
  } else if (request.op == "compose") {
    result = app_.Compose(request.target, request.arg, request.arg2, request.payload);
  } else if (request.op == "forward") {
    result = app_.Forward(request.target, ParseU64(request.arg), request.arg2);
  } else {
    return UnknownOp(request);
  }
  ServerResponse response;
  response.ok = result.ok;
  response.body = result.display;
  response.error = result.error;
  if (attack_open) {
    // Acceptable (§4.6.2): the open *failed* with the IMAP server's "does
    // not exist" error, handled by Mutt's standard error logic.
    response.acceptable =
        !result.ok && result.error.find("does not exist") != std::string::npos;
  } else {
    response.acceptable = result.ok;
  }
  return response;
}

// ---- Archive Inbox ---------------------------------------------------------

ArchiveServer::ArchiveServer(const PolicySpec& spec) : app_(spec) {}

ServerResponse ArchiveServer::Handle(const ServerRequest& request) {
  ArchiveInboxApp::Result result;
  bool attack_upload = false;
  if (request.op == "upload") {
    result = app_.Upload(request.target, request.payload);
    attack_upload = request.tag == RequestTag::kAttack;
  } else if (request.op == "list") {
    result = app_.List(request.target);
  } else if (request.op == "extract") {
    result = app_.Extract(request.target, request.arg);
  } else if (request.op == "drop") {
    result = app_.Drop(request.target);
  } else {
    return UnknownOp(request);
  }
  ServerResponse response;
  response.ok = result.ok;
  response.body = result.display;
  response.error = result.error;
  response.lines = result.files;
  bool count_ok =
      request.expect.empty() || result.files.size() == ParseU64(request.expect);
  if (attack_upload) {
    // Acceptable: the upload was stored in full despite the oversized FNAME
    // (the name is display-only) — or the malformed container was rejected
    // through the server's standard "Cannot open archive" path, the
    // anticipated error case.
    response.acceptable =
        (result.ok && count_ok) || StartsWith(result.error, "Cannot open archive");
  } else {
    response.acceptable = result.ok && count_ok;
  }
  return response;
}

// ---- Codec Gateway ---------------------------------------------------------

CodecServer::CodecServer(const PolicySpec& spec) : app_(spec) {}

ServerResponse CodecServer::Handle(const ServerRequest& request) {
  if (request.op != "transcode") {
    return UnknownOp(request);
  }
  CodecGatewayApp::Result result =
      app_.Transcode(request.target, request.arg, request.payload);
  ServerResponse response;
  response.ok = result.ok;
  response.body = result.output;
  response.error = result.error;
  // Acceptable: the conversion came back, and matches exactly when the
  // workload pins the expected bytes (an integrity-checking client — under
  // the undersized decode only Boundless reproduces the reference output,
  // which is what drives the sweep toward a per-site assignment no §4
  // server needs).
  response.acceptable =
      result.ok && (request.expect.empty() || result.output == request.expect);
  return response;
}

}  // namespace fob
