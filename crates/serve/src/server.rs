//! The TCP front end: accept connections, speak the NDJSON protocol, dispatch to a
//! [`ServeEngine`].
//!
//! One thread per connection (requests within a connection are handled in order; separate
//! connections are concurrent — the engine's scheduler interleaves their search work).
//! Accepted sockets get `TCP_NODELAY` (one-line request/response turns must not wait on
//! Nagle) and explicit read/write timeouts, request lines are length-capped
//! (`read_frame`), and each connection thread fences its handler with `catch_unwind` so
//! a handler panic drops one connection, never the server. A `Shutdown` request drains
//! the engine gracefully — admission closes, in-flight windows finish, every session
//! snapshots — then flips the shutdown flag, which the accept loop observes; a loopback
//! wake-up connection unblocks the blocking `accept` so the server exits promptly.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use mctsui_core::TriagedLog;

use crate::engine::{ServeEngine, ServeError, SynthesisResult};
use crate::proto::{decode_line, encode_line, read_frame, Frame, Request, Response};

/// Bind `addr` and serve `engine` until a `Shutdown` request arrives. Returns the bound
/// address through `on_bound` (useful with port 0) before blocking in the accept loop.
pub fn serve(
    engine: Arc<ServeEngine>,
    addr: &str,
    mut on_bound: impl FnMut(SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    on_bound(local);
    serve_on(engine, listener)
}

/// Serve an already-bound listener until a `Shutdown` request arrives.
pub fn serve_on(engine: Arc<ServeEngine>, listener: TcpListener) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    for stream in listener.incoming() {
        if engine.is_shutdown() {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        if let Some(plan) = &engine.config().fault {
            if plan.on_connection() {
                // Injected connection drop: sever without a byte, as a mid-handshake
                // network failure would. The client's reconnect/backoff path owns this.
                drop(stream);
                continue;
            }
        }
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            // A panic in the handler (or anything it calls) kills this connection only.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let _ = handle_connection(&engine, local, stream);
            }));
        });
    }
    engine.join_workers();
    Ok(())
}

/// Serve one connection: read capped request lines, write response lines.
fn handle_connection(
    engine: &ServeEngine,
    local: SocketAddr,
    stream: TcpStream,
) -> std::io::Result<()> {
    let io_timeout = Duration::from_millis(engine.config().io_timeout_millis.max(1));
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let frame_cap = engine.config().max_frame_bytes;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let line = match read_frame(&mut reader, frame_cap)? {
            Frame::Eof => break,
            Frame::Oversized => {
                // The oversized line was discarded up to its newline; report the typed
                // error and keep serving — the connection is still frame-aligned.
                let response = error_response(ServeError::FrameTooLarge { limit: frame_cap });
                writer.write_all(encode_line(&response).as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                continue;
            }
            Frame::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = dispatch(engine, &line);
        let shutting_down = matches!(response, Response::ShuttingDown);
        writer.write_all(encode_line(&response).as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutting_down {
            // Graceful drain: stop admitting, let in-flight windows finish, snapshot
            // every session (when a store is configured), then stop the workers.
            engine.drain_and_shutdown(Duration::from_secs(10));
            // Unblock the accept loop so the server notices the flag immediately. Connect
            // via loopback explicitly: wildcard binds (0.0.0.0 / ::) are not connectable
            // addresses on every platform.
            let _ = TcpStream::connect(("127.0.0.1", local.port()));
            break;
        }
    }
    Ok(())
}

/// Decode one request line, execute it against the engine, encode the response.
pub fn dispatch(engine: &ServeEngine, line: &str) -> Response {
    let request: Request = match decode_line(line) {
        Ok(request) => request,
        Err(message) => {
            return Response::Error {
                code: "bad_request".into(),
                message: format!("bad request: {message}"),
            }
        }
    };
    match request {
        Request::Synthesize {
            queries,
            iterations,
            deadline_millis,
            seed,
        } => {
            // Lenient admission: triage the log, quarantine unusable entries, serve the
            // healthy remainder. The engine enforces `--strict` (reject on first error)
            // and rejects logs with no healthy query at all.
            let log = TriagedLog::from_sources(&queries);
            match engine.synthesize_triaged(&log, iterations, deadline_millis, seed) {
                Ok(result) => synthesized(result),
                Err(e) => error_response(e),
            }
        }
        Request::Refine {
            session,
            iterations,
            deadline_millis,
        } => match engine.refine(session, iterations, deadline_millis) {
            Ok(result) => refined(result),
            Err(e) => error_response(e),
        },
        Request::Interact { session, action } => match engine.interact(session, &action) {
            Ok(sql) => Response::Interacted { session, sql },
            Err(e) => error_response(e),
        },
        Request::Append { session, query } => match engine.append(session, &query) {
            Ok(edit) => Response::Appended {
                session: edit.result.session,
                best: edit.result.best,
                interface: edit.result.interface,
                diagnostics: edit.result.diagnostics,
                log_len: edit.log_len,
                healthy_len: edit.healthy_len,
            },
            Err(e) => error_response(e),
        },
        Request::Retract { session, index } => match engine.retract(session, index) {
            Ok(edit) => Response::Retracted {
                session: edit.result.session,
                best: edit.result.best,
                interface: edit.result.interface,
                diagnostics: edit.result.diagnostics,
                log_len: edit.log_len,
                healthy_len: edit.healthy_len,
            },
            Err(e) => error_response(e),
        },
        Request::Stats => Response::Stats(engine.stats()),
        Request::Resume { session } => match engine.resume(session) {
            Ok(result) => Response::Resumed {
                session: result.session,
                best: result.best,
                interface: result.interface,
            },
            Err(e) => error_response(e),
        },
        Request::Close { session } => match engine.close_session(session) {
            Ok(()) => Response::Closed { session },
            Err(e) => error_response(e),
        },
        Request::Shutdown => Response::ShuttingDown,
    }
}

fn synthesized(result: SynthesisResult) -> Response {
    Response::Synthesized {
        session: result.session,
        best: result.best,
        interface: result.interface,
        diagnostics: result.diagnostics,
    }
}

fn refined(result: SynthesisResult) -> Response {
    Response::Refined {
        session: result.session,
        best: result.best,
        improved: result.improved,
        interface: result.interface,
        diagnostics: result.diagnostics,
    }
}

fn error_response(error: ServeError) -> Response {
    Response::Error {
        code: error.code().into(),
        message: error.to_string(),
    }
}
