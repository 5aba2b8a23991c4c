//! SPICE deck parser: the "input parser" box of RCFIT's flowchart.
//!
//! Supports the element cards rich parasitic decks need (R, C, L, M, V,
//! I, the E/G/F/H controlled sources, and D diodes), `.MODEL` for
//! level-1 MOSFETs and junction diodes, `.TRAN`/`.AC`/`.DC`/`.PRINT`
//! analyses, comments (`*`), line continuations (`+`) and
//! case-insensitive keywords with engineering-unit values.

use std::collections::BTreeMap;

use crate::ast::{
    Analysis, DiodeModel, Element, ElementKind, MosModel, Netlist, Subckt, SubcktInstance, Waveform,
};
use crate::units::parse_value;

/// Error from parsing a SPICE deck, with 1-based line information.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseNetlistError {
    /// 1-based source line of the offending card.
    pub line: usize,
    /// 1-based column of the offending token within that line, or 0 when
    /// the error applies to the card as a whole.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.col > 0 {
            write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseNetlistError {}

/// Parses a SPICE deck from text.
///
/// The first line is the title (SPICE convention). Unknown dot-cards are
/// ignored with no error (HSPICE compatibility); unknown element letters
/// are an error.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] with the offending line on malformed
/// cards.
///
/// ```
/// use pact_netlist::parse;
/// let deck = "* rc line\nR1 in out 250\nC1 out 0 1.35p\n.end\n";
/// let nl = parse(deck)?;
/// assert_eq!(nl.elements.len(), 2);
/// # Ok::<(), pact_netlist::ParseNetlistError>(())
/// ```
pub fn parse(text: &str) -> Result<Netlist, ParseNetlistError> {
    // Join continuation lines, remembering original line numbers.
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if let Some(rest) = line.trim_start().strip_prefix('+') {
            if let Some(last) = logical.last_mut() {
                last.1.push(' ');
                last.1.push_str(rest);
                continue;
            }
        }
        logical.push((idx + 1, line.to_owned()));
    }

    let mut nl = Netlist::default();
    // Subcircuit scope: while inside `.subckt … .ends`, cards land in a
    // scratch netlist that becomes the definition body. The line number of
    // the opening `.subckt` card rides along for error attribution.
    let mut subckt_stack: Vec<(usize, Subckt, Netlist)> = Vec::new();
    let mut first = true;
    for (lineno, line) in logical {
        let trimmed = line.trim();
        if first {
            first = false;
            // Title line (may be empty or a comment).
            nl.title = trimmed.trim_start_matches('*').trim().to_owned();
            // But some decks start immediately with a card; detect that.
            if !looks_like_card(trimmed) {
                continue;
            }
            nl.title.clear();
        }
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        // Strip trailing `$`-style comments.
        let body = match trimmed.find('$') {
            Some(pos) => trimmed[..pos].trim_end(),
            None => trimmed,
        };
        if body.is_empty() {
            continue;
        }
        // Subcircuit scope transitions.
        let lower = body.to_ascii_lowercase();
        if lower.starts_with(".subckt") {
            let toks: Vec<&str> = body.split_whitespace().collect();
            if toks.len() < 2 {
                return Err(err(lineno, ".subckt needs a name"));
            }
            subckt_stack.push((
                lineno,
                Subckt {
                    name: toks[1].to_ascii_lowercase(),
                    ports: toks[2..].iter().map(|t| (*t).to_owned()).collect(),
                    elements: Vec::new(),
                    instances: Vec::new(),
                },
                Netlist::default(),
            ));
            continue;
        }
        if lower.starts_with(".ends") {
            let (def_line, mut def, scope) = subckt_stack
                .pop()
                .ok_or_else(|| err(lineno, ".ends without matching .subckt"))?;
            def.elements = scope.elements;
            def.instances = scope.instances;
            // Models declared inside a subckt are hoisted to global scope
            // (HSPICE semantics for our purposes). Definitions always
            // register globally, even when nested — so a hoisted model
            // colliding with an existing one is a duplicate too.
            for name in scope.models.keys().chain(scope.diode_models.keys()) {
                if nl.models.contains_key(name) || nl.diode_models.contains_key(name) {
                    return Err(err(
                        def_line,
                        format!(
                            "duplicate .model definition `{name}` (hoisted from subckt `{}`)",
                            def.name
                        ),
                    ));
                }
            }
            nl.models.extend(scope.models);
            nl.diode_models.extend(scope.diode_models);
            if nl.subckts.contains_key(&def.name) {
                return Err(err(
                    def_line,
                    format!("duplicate .subckt definition `{}`", def.name),
                ));
            }
            nl.subckts.insert(def.name.clone(), def);
            continue;
        }
        let target = match subckt_stack.last_mut() {
            Some((_, _, scope)) => scope,
            None => &mut nl,
        };
        parse_card(body, lineno, target)?;
    }
    if let Some((def_line, def, _)) = subckt_stack.last() {
        return Err(err(
            *def_line,
            format!("unterminated .subckt `{}`", def.name),
        ));
    }
    Ok(nl)
}

fn looks_like_card(line: &str) -> bool {
    let lower = line.to_ascii_lowercase();
    let first = lower.chars().next().unwrap_or(' ');
    matches!(
        first,
        'r' | 'c' | 'l' | 'm' | 'v' | 'i' | 'x' | 'e' | 'g' | 'f' | 'h' | 'd' | '.'
    ) && lower.split_whitespace().count() >= 2
}

fn err(line: usize, message: impl Into<String>) -> ParseNetlistError {
    ParseNetlistError {
        line,
        col: 0,
        message: message.into(),
    }
}

fn err_at(line: usize, col: usize, message: impl Into<String>) -> ParseNetlistError {
    ParseNetlistError {
        line,
        col,
        message: message.into(),
    }
}

/// 1-based column of `token`'s first occurrence in the original card body.
///
/// Tokenization happens on a copy with `(`/`)`/`=` padded out, so token
/// positions in the token stream do not map back to source columns; the
/// token *text* is unchanged, though, so a substring search on the
/// original body recovers the column. Returns 0 (unknown) if the token
/// cannot be located.
fn col_of(body: &str, token: &str) -> usize {
    body.find(token).map(|p| p + 1).unwrap_or(0)
}

fn parse_card(body: &str, line: usize, nl: &mut Netlist) -> Result<(), ParseNetlistError> {
    // Normalize parentheses into separate tokens for PULSE(...) forms.
    let spaced = body
        .replace('(', " ( ")
        .replace(')', " ) ")
        .replace('=', " = ");
    let tokens: Vec<&str> = spaced.split_whitespace().collect();
    if tokens.is_empty() {
        return Ok(());
    }
    let head = tokens[0].to_ascii_lowercase();
    match head.chars().next().unwrap() {
        '.' => parse_dot_card(&head, &tokens, body, line, nl),
        'r' => {
            let (a, b, v) = two_node_value(&tokens, body, line)?;
            nl.elements.push(Element {
                name: tokens[0].to_owned(),
                kind: ElementKind::Resistor { a, b, ohms: v },
            });
            Ok(())
        }
        'c' => {
            let (a, b, v) = two_node_value(&tokens, body, line)?;
            nl.elements.push(Element {
                name: tokens[0].to_owned(),
                kind: ElementKind::Capacitor { a, b, farads: v },
            });
            Ok(())
        }
        'l' => {
            let (a, b, v) = two_node_value(&tokens, body, line)?;
            nl.elements.push(Element {
                name: tokens[0].to_owned(),
                kind: ElementKind::Inductor { a, b, henries: v },
            });
            Ok(())
        }
        'e' | 'g' => {
            // Ename p n cp cn gain / Gname p n cp cn gm.
            if tokens.len() < 6 {
                let what = if head.starts_with('e') { "E" } else { "G" };
                return Err(err(
                    line,
                    format!("expected `{what}name p n cp cn value` (controlled source)"),
                ));
            }
            let v = parse_value(tokens[5])
                .map_err(|e| err_at(line, col_of(body, tokens[5]), e.to_string()))?;
            let (p, n, cp, cn) = (
                tokens[1].to_owned(),
                tokens[2].to_owned(),
                tokens[3].to_owned(),
                tokens[4].to_owned(),
            );
            let kind = if head.starts_with('e') {
                ElementKind::Vcvs {
                    p,
                    n,
                    cp,
                    cn,
                    gain: v,
                }
            } else {
                ElementKind::Vccs {
                    p,
                    n,
                    cp,
                    cn,
                    gm: v,
                }
            };
            nl.elements.push(Element {
                name: tokens[0].to_owned(),
                kind,
            });
            Ok(())
        }
        'f' | 'h' => {
            // Fname p n Vctrl gain / Hname p n Vctrl ohms.
            if tokens.len() < 5 {
                let what = if head.starts_with('f') { "F" } else { "H" };
                return Err(err(
                    line,
                    format!("expected `{what}name p n vsource value` (controlled source)"),
                ));
            }
            let ctrl = tokens[3].to_owned();
            if !ctrl.to_ascii_lowercase().starts_with('v') {
                return Err(err_at(
                    line,
                    col_of(body, tokens[3]),
                    format!("controlling element `{ctrl}` must be a voltage source (V…)"),
                ));
            }
            let v = parse_value(tokens[4])
                .map_err(|e| err_at(line, col_of(body, tokens[4]), e.to_string()))?;
            let (p, n) = (tokens[1].to_owned(), tokens[2].to_owned());
            let kind = if head.starts_with('f') {
                ElementKind::Cccs {
                    p,
                    n,
                    ctrl,
                    gain: v,
                }
            } else {
                ElementKind::Ccvs {
                    p,
                    n,
                    ctrl,
                    ohms: v,
                }
            };
            nl.elements.push(Element {
                name: tokens[0].to_owned(),
                kind,
            });
            Ok(())
        }
        'd' => {
            // Dname anode cathode model [area=x | x].
            if tokens.len() < 4 {
                return Err(err(line, "expected `Dname anode cathode model [area=x]`"));
            }
            let mut area = 1.0;
            if tokens.len() > 4 {
                if tokens.len() >= 7 && tokens[4].eq_ignore_ascii_case("area") && tokens[5] == "=" {
                    area = parse_value(tokens[6])
                        .map_err(|e| err_at(line, col_of(body, tokens[6]), e.to_string()))?;
                } else {
                    area = parse_value(tokens[4])
                        .map_err(|e| err_at(line, col_of(body, tokens[4]), e.to_string()))?;
                }
                if area <= 0.0 || !area.is_finite() {
                    return Err(err_at(
                        line,
                        col_of(body, tokens[tokens.len() - 1]),
                        format!("diode area must be positive and finite, got {area}"),
                    ));
                }
            }
            nl.elements.push(Element {
                name: tokens[0].to_owned(),
                kind: ElementKind::Diode {
                    p: tokens[1].to_owned(),
                    n: tokens[2].to_owned(),
                    model: tokens[3].to_ascii_lowercase(),
                    area,
                },
            });
            Ok(())
        }
        'm' => parse_mosfet(&tokens, body, line, nl),
        'x' => {
            if tokens.len() < 3 {
                return Err(err(line, "expected `Xname node... subckt`"));
            }
            nl.instances.push(SubcktInstance {
                name: tokens[0].to_owned(),
                nodes: tokens[1..tokens.len() - 1]
                    .iter()
                    .map(|t| (*t).to_owned())
                    .collect(),
                subckt: tokens[tokens.len() - 1].to_ascii_lowercase(),
            });
            Ok(())
        }
        'v' | 'i' => {
            if tokens.len() < 3 {
                let what = if head.starts_with('v') { "V" } else { "I" };
                return Err(err(
                    line,
                    format!("expected `{what}name n+ n- [value | waveform]`"),
                ));
            }
            let wave = parse_waveform(&tokens[3..], body, line)?;
            let kind = if head.starts_with('v') {
                ElementKind::VSource {
                    p: tokens[1].to_owned(),
                    n: tokens[2].to_owned(),
                    wave,
                }
            } else {
                ElementKind::ISource {
                    p: tokens[1].to_owned(),
                    n: tokens[2].to_owned(),
                    wave,
                }
            };
            nl.elements.push(Element {
                name: tokens[0].to_owned(),
                kind,
            });
            Ok(())
        }
        other => Err(err(line, format!("unsupported element type `{other}`"))),
    }
}

fn two_node_value(
    tokens: &[&str],
    body: &str,
    line: usize,
) -> Result<(String, String, f64), ParseNetlistError> {
    if tokens.len() < 4 {
        return Err(err(line, "expected `NAME node1 node2 value`"));
    }
    let v =
        parse_value(tokens[3]).map_err(|e| err_at(line, col_of(body, tokens[3]), e.to_string()))?;
    Ok((tokens[1].to_owned(), tokens[2].to_owned(), v))
}

fn parse_mosfet(
    tokens: &[&str],
    body: &str,
    line: usize,
    nl: &mut Netlist,
) -> Result<(), ParseNetlistError> {
    if tokens.len() < 6 {
        return Err(err(line, "expected `Mname d g s b model [w= l=]`"));
    }
    let mut w = 10e-6;
    let mut l = 1e-6;
    let mut i = 6;
    while i < tokens.len() {
        let key = tokens[i].to_ascii_lowercase();
        if (key == "w" || key == "l") && i + 2 < tokens.len() && tokens[i + 1] == "=" {
            let v = parse_value(tokens[i + 2])
                .map_err(|e| err_at(line, col_of(body, tokens[i + 2]), e.to_string()))?;
            if key == "w" {
                w = v;
            } else {
                l = v;
            }
            i += 3;
        } else if let Some(eqpos) = key.find('=') {
            // w=10u glued form survives `=` spacing replacement only when
            // the token had no `=`; handle defensively.
            let (k, v) = key.split_at(eqpos);
            let v = parse_value(&v[1..])
                .map_err(|e| err_at(line, col_of(body, tokens[i]), e.to_string()))?;
            match k {
                "w" => w = v,
                "l" => l = v,
                _ => {}
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    nl.elements.push(Element {
        name: tokens[0].to_owned(),
        kind: ElementKind::Mosfet {
            d: tokens[1].to_owned(),
            g: tokens[2].to_owned(),
            s: tokens[3].to_owned(),
            b: tokens[4].to_owned(),
            model: tokens[5].to_ascii_lowercase(),
            w,
            l,
        },
    });
    Ok(())
}

fn parse_waveform(tokens: &[&str], body: &str, line: usize) -> Result<Waveform, ParseNetlistError> {
    if tokens.is_empty() {
        return Ok(Waveform::Dc(0.0));
    }
    let head = tokens[0].to_ascii_lowercase();
    match head.as_str() {
        "dc" => {
            let v = tokens
                .get(1)
                .ok_or_else(|| err(line, "dc needs a value"))
                .and_then(|t| {
                    parse_value(t).map_err(|e| err_at(line, col_of(body, t), e.to_string()))
                })?;
            Ok(Waveform::Dc(v))
        }
        "pulse" => {
            let vals = numeric_args(&tokens[1..], body, line)?;
            if vals.len() < 2 {
                return Err(err(line, "pulse needs at least v1 v2"));
            }
            let get = |i: usize, d: f64| vals.get(i).copied().unwrap_or(d);
            Ok(Waveform::Pulse {
                v1: vals[0],
                v2: vals[1],
                td: get(2, 0.0),
                tr: get(3, 0.0),
                tf: get(4, 0.0),
                pw: get(5, f64::INFINITY),
                per: get(6, 0.0),
            })
        }
        "pwl" => {
            let vals = numeric_args(&tokens[1..], body, line)?;
            if vals.len() % 2 != 0 {
                return Err(err(line, "pwl needs time/value pairs"));
            }
            let pts: Vec<(f64, f64)> = vals.chunks(2).map(|c| (c[0], c[1])).collect();
            for w in pts.windows(2) {
                if w[1].0 < w[0].0 {
                    return Err(err(line, "pwl times must be non-decreasing"));
                }
            }
            Ok(Waveform::Pwl(pts))
        }
        "sin" => {
            let vals = numeric_args(&tokens[1..], body, line)?;
            if vals.len() < 3 {
                return Err(err(line, "sin needs vo va freq"));
            }
            Ok(Waveform::Sin {
                vo: vals[0],
                va: vals[1],
                freq: vals[2],
            })
        }
        _ => {
            // Bare value: `V1 a 0 5`.
            let v = parse_value(tokens[0])
                .map_err(|e| err_at(line, col_of(body, tokens[0]), e.to_string()))?;
            Ok(Waveform::Dc(v))
        }
    }
}

fn numeric_args(tokens: &[&str], body: &str, line: usize) -> Result<Vec<f64>, ParseNetlistError> {
    let mut out = Vec::new();
    for t in tokens {
        if *t == "(" || *t == ")" {
            continue;
        }
        out.push(parse_value(t).map_err(|e| err_at(line, col_of(body, t), e.to_string()))?);
    }
    Ok(out)
}

fn parse_dot_card(
    head: &str,
    tokens: &[&str],
    body: &str,
    line: usize,
    nl: &mut Netlist,
) -> Result<(), ParseNetlistError> {
    match head {
        ".model" => {
            if tokens.len() < 3 {
                return Err(err(line, ".model needs name and type"));
            }
            let name = tokens[1].to_ascii_lowercase();
            let kind = tokens[2].to_ascii_lowercase();
            // Duplicate-model detection spans both namespaces: a MOSFET
            // and a diode model may not share a name either — references
            // resolve by name alone, so a collision is always ambiguous.
            if nl.models.contains_key(&name) || nl.diode_models.contains_key(&name) {
                return Err(err_at(
                    line,
                    col_of(body, tokens[1]),
                    format!("duplicate .model definition `{name}`"),
                ));
            }
            if kind == "d" || kind == "diode" {
                let mut model = DiodeModel::default_diode(name);
                let params = collect_params(&tokens[3..], body, line)?;
                for (k, v) in params {
                    match k.as_str() {
                        "is" => model.is = v,
                        "n" => model.n = v,
                        "cj0" | "cjo" => model.cj0 = v,
                        _ => {} // ignore unknown parameters
                    }
                }
                if model.is.is_nan() || model.is <= 0.0 || model.n.is_nan() || model.n <= 0.0 {
                    return Err(err_at(
                        line,
                        col_of(body, tokens[1]),
                        format!(
                            "diode model `{}` needs positive is and n (got is={}, n={})",
                            model.name, model.is, model.n
                        ),
                    ));
                }
                nl.diode_models.insert(model.name.clone(), model);
                return Ok(());
            }
            let mut model = match kind.as_str() {
                "nmos" => MosModel::default_nmos(name.clone()),
                "pmos" => MosModel::default_pmos(name.clone()),
                other => {
                    return Err(err_at(
                        line,
                        col_of(body, tokens[2]),
                        format!("unsupported model type `{other}`"),
                    ))
                }
            };
            // key = value pairs (already `=`-spaced).
            let params = collect_params(&tokens[3..], body, line)?;
            for (k, v) in params {
                match k.as_str() {
                    "vto" | "vt0" => model.vto = v,
                    "kp" => model.kp = v,
                    "lambda" => model.lambda = v,
                    "cox" => model.cox = v,
                    "cjb" => model.cjb = v,
                    _ => {} // ignore unknown parameters (HSPICE decks carry many)
                }
            }
            nl.models.insert(model.name.clone(), model);
            Ok(())
        }
        ".tran" => {
            let vals = numeric_args(&tokens[1..], body, line)?;
            if vals.len() < 2 {
                return Err(err(line, ".tran needs tstep tstop"));
            }
            nl.analyses.push(Analysis::Tran {
                tstep: vals[0],
                tstop: vals[1],
            });
            Ok(())
        }
        ".ac" => {
            if tokens.len() < 5 || !tokens[1].eq_ignore_ascii_case("dec") {
                return Err(err(line, ".ac supports `dec n fstart fstop`"));
            }
            let n: usize = tokens[2]
                .parse()
                .map_err(|_| err_at(line, col_of(body, tokens[2]), "invalid point count"))?;
            let fstart = parse_value(tokens[3])
                .map_err(|e| err_at(line, col_of(body, tokens[3]), e.to_string()))?;
            let fstop = parse_value(tokens[4])
                .map_err(|e| err_at(line, col_of(body, tokens[4]), e.to_string()))?;
            nl.analyses.push(Analysis::AcDec {
                points_per_decade: n,
                fstart,
                fstop,
            });
            Ok(())
        }
        ".dc" => {
            // .dc SRC start stop step
            if tokens.len() < 5 {
                return Err(err(line, ".dc needs `source start stop step`"));
            }
            let source = tokens[1].to_owned();
            let first = source.chars().next().unwrap_or(' ').to_ascii_lowercase();
            if first != 'v' && first != 'i' {
                return Err(err_at(
                    line,
                    col_of(body, tokens[1]),
                    format!("swept element `{source}` must be a V or I source"),
                ));
            }
            let start = parse_value(tokens[2])
                .map_err(|e| err_at(line, col_of(body, tokens[2]), e.to_string()))?;
            let stop = parse_value(tokens[3])
                .map_err(|e| err_at(line, col_of(body, tokens[3]), e.to_string()))?;
            let step = parse_value(tokens[4])
                .map_err(|e| err_at(line, col_of(body, tokens[4]), e.to_string()))?;
            if step == 0.0 || !step.is_finite() || (stop - start) * step < 0.0 {
                return Err(err_at(
                    line,
                    col_of(body, tokens[4]),
                    format!("sweep step {step} cannot reach {stop} from {start}"),
                ));
            }
            nl.analyses.push(Analysis::DcSweep {
                source,
                start,
                stop,
                step,
            });
            Ok(())
        }
        ".print" => {
            // .print [tran|ac|dc] v(node) … — the analysis keyword is
            // optional (defaults to tran, matching classic decks).
            let (analysis, rest) = match tokens.get(1).map(|t| t.to_ascii_lowercase()) {
                Some(a) if a == "tran" || a == "ac" || a == "dc" => (a, &tokens[2..]),
                _ => ("tran".to_owned(), &tokens[1..]),
            };
            // Re-assemble `v ( out )` token runs into `v(out)` variables.
            let mut vars: Vec<String> = Vec::new();
            let mut depth = 0usize;
            for t in rest {
                match *t {
                    "(" => {
                        if let Some(last) = vars.last_mut() {
                            last.push('(');
                            depth += 1;
                        }
                    }
                    ")" => {
                        if depth > 0 {
                            if let Some(last) = vars.last_mut() {
                                last.push(')');
                            }
                            depth -= 1;
                        }
                    }
                    tok => {
                        if depth > 0 {
                            if let Some(last) = vars.last_mut() {
                                last.push_str(tok);
                            }
                        } else {
                            vars.push(tok.to_ascii_lowercase());
                        }
                    }
                }
            }
            if vars.is_empty() {
                return Err(err(line, ".print needs at least one output variable"));
            }
            nl.analyses.push(Analysis::Print { analysis, vars });
            Ok(())
        }
        ".end" => Ok(()),
        _ => Ok(()), // ignore .options, .probe, ...
    }
}

fn collect_params(
    tokens: &[&str],
    body: &str,
    line: usize,
) -> Result<BTreeMap<String, f64>, ParseNetlistError> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = tokens[i];
        if t == "(" || t == ")" {
            i += 1;
            continue;
        }
        if i + 2 < tokens.len() && tokens[i + 1] == "=" {
            let v = parse_value(tokens[i + 2])
                .map_err(|e| err_at(line, col_of(body, tokens[i + 2]), e.to_string()))?;
            out.insert(t.to_ascii_lowercase(), v);
            i += 3;
        } else if i + 2 == tokens.len() && tokens[i + 1] == "=" {
            return Err(err_at(
                line,
                col_of(body, t),
                format!("parameter `{t}` missing value"),
            ));
        } else {
            i += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rc_deck() {
        let deck = "\
* simple rc
R1 in mid 125
R2 mid out 125
Cl mid 0 1.35p
C2 out 0 0.5pF
.tran 10p 5n
.end
";
        let nl = parse(deck).unwrap();
        assert_eq!(nl.title, "simple rc");
        assert_eq!(nl.elements.len(), 4);
        match &nl.elements[2].kind {
            ElementKind::Capacitor { farads, .. } => assert!((*farads - 1.35e-12).abs() < 1e-24),
            other => panic!("wrong kind {other:?}"),
        }
        assert_eq!(nl.analyses.len(), 1);
    }

    #[test]
    fn continuation_lines_join() {
        let deck = "* t\nV1 in 0 pulse(0 5\n+ 0 1n 1n 3n 10n)\n.end\n";
        let nl = parse(deck).unwrap();
        match &nl.elements[0].kind {
            ElementKind::VSource {
                wave: Waveform::Pulse { v2, per, .. },
                ..
            } => {
                assert_eq!(*v2, 5.0);
                assert_eq!(*per, 10e-9);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn parses_mosfet_and_model() {
        let deck = "\
* inv
.model nch nmos (vto=0.7 kp=110u lambda=0.04)
.model pch pmos (vto=-0.9 kp=40u)
M1 out in 0 0 nch w=4u l=1u
M2 out in vdd vdd pch w=8u l=1u
Vdd vdd 0 5
.end
";
        let nl = parse(deck).unwrap();
        assert_eq!(nl.models.len(), 2);
        assert!(nl.models["nch"].nmos);
        assert!((nl.models["nch"].kp - 110e-6).abs() < 1e-12);
        assert!(!nl.models["pch"].nmos);
        match &nl.elements[0].kind {
            ElementKind::Mosfet { w, l, model, .. } => {
                assert_eq!(*w, 4e-6);
                assert_eq!(*l, 1e-6);
                assert_eq!(model, "nch");
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn parses_sources() {
        let deck =
            "* s\nV1 a 0 5\nV2 b 0 dc 3.3\nI1 c 0 pwl(0 0 1n 1m)\nV3 d 0 sin(0 1 1meg)\n.end\n";
        let nl = parse(deck).unwrap();
        assert_eq!(nl.elements.len(), 4);
        match &nl.elements[0].kind {
            ElementKind::VSource { wave, .. } => assert_eq!(wave.dc_value(), 5.0),
            _ => panic!(),
        }
        match &nl.elements[2].kind {
            ElementKind::ISource {
                wave: Waveform::Pwl(p),
                ..
            } => assert_eq!(p.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_ac_card() {
        let nl = parse("* a\nR1 a 0 1k\n.ac dec 27 10meg 10g\n.end\n").unwrap();
        match &nl.analyses[0] {
            Analysis::AcDec {
                points_per_decade,
                fstart,
                fstop,
            } => {
                assert_eq!(*points_per_decade, 27);
                assert_eq!(*fstart, 1e7);
                assert_eq!(*fstop, 1e10);
            }
            other => panic!("wrong analysis {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("* t\nR1 a b\n.end\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("* t\nQ1 a b c\n.end\n").unwrap_err();
        assert!(e.message.contains("unsupported"));
    }

    #[test]
    fn value_errors_carry_columns() {
        // `abc` starts at column 8 of `R1 a b abc`.
        let e = parse("* t\nR1 a b abc\n.end\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 8);
        assert!(e.to_string().starts_with("line 2, col 8:"));
        // Card-level errors have no column and omit it from the message.
        let e = parse("* t\nR1 a b\n.end\n").unwrap_err();
        assert_eq!(e.col, 0);
        assert!(e.to_string().starts_with("line 2:"));
    }

    #[test]
    fn duplicate_subckt_definition_is_error() {
        let deck = "\
* t
.subckt cell a b
R1 a b 1k
.ends
.subckt cell a b
R1 a b 2k
.ends
.end
";
        let e = parse(deck).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("duplicate .subckt definition `cell`"));
    }

    #[test]
    fn unterminated_subckt_reports_opening_line() {
        let e = parse("* t\nR1 a 0 1k\n.subckt cell a b\nR2 a b 1k\n.end\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn ignores_unknown_dot_cards_and_comments() {
        let deck = "* t\n.options post\nR1 a 0 1k $ load\n* comment\n.print v(a)\n.end\n";
        let nl = parse(deck).unwrap();
        assert_eq!(nl.elements.len(), 1);
    }

    #[test]
    fn first_line_card_not_swallowed() {
        let nl = parse("R1 a 0 1k\n.end\n").unwrap();
        assert_eq!(nl.elements.len(), 1);
        assert!(nl.title.is_empty());
    }

    #[test]
    fn parses_inductor_and_controlled_sources() {
        let deck = "\
* rich
L1 a b 10n
E1 p 0 cp cn 2.5
G1 q 0 cp cn 1m
Vref s 0 1
F1 r 0 Vref 3
H1 t 0 Vref 50
.end
";
        let nl = parse(deck).unwrap();
        assert_eq!(nl.elements.len(), 6);
        match &nl.elements[0].kind {
            ElementKind::Inductor { henries, .. } => assert!((henries - 10e-9).abs() < 1e-21),
            other => panic!("wrong kind {other:?}"),
        }
        match &nl.elements[1].kind {
            ElementKind::Vcvs { gain, cp, .. } => {
                assert_eq!(*gain, 2.5);
                assert_eq!(cp, "cp");
            }
            other => panic!("wrong kind {other:?}"),
        }
        match &nl.elements[2].kind {
            ElementKind::Vccs { gm, .. } => assert!((gm - 1e-3).abs() < 1e-15),
            other => panic!("wrong kind {other:?}"),
        }
        match &nl.elements[4].kind {
            ElementKind::Cccs { ctrl, gain, .. } => {
                assert_eq!(ctrl, "Vref");
                assert_eq!(*gain, 3.0);
            }
            other => panic!("wrong kind {other:?}"),
        }
        match &nl.elements[5].kind {
            ElementKind::Ccvs { ohms, .. } => assert_eq!(*ohms, 50.0),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn parses_diode_and_model() {
        let deck = "\
* d
.model dclamp d (is=2e-15 n=1.1 cj0=10f)
D1 a 0 dclamp
D2 b 0 dclamp area=4
.end
";
        let nl = parse(deck).unwrap();
        assert_eq!(nl.diode_models.len(), 1);
        let m = &nl.diode_models["dclamp"];
        assert!((m.is - 2e-15).abs() < 1e-27);
        assert!((m.n - 1.1).abs() < 1e-12);
        assert!((m.cj0 - 10e-15).abs() < 1e-27);
        match &nl.elements[1].kind {
            ElementKind::Diode { area, model, .. } => {
                assert_eq!(*area, 4.0);
                assert_eq!(model, "dclamp");
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn duplicate_model_is_error_with_column() {
        let deck = "* t\n.model nch nmos()\n.model nch nmos (kp=50u)\n.end\n";
        let e = parse(deck).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.col > 0, "duplicate model should be column-attributed");
        assert!(e.message.contains("duplicate .model definition `nch`"));
        // Cross-namespace duplicates are caught too.
        let deck = "* t\n.model x nmos()\n.model x d()\n.end\n";
        let e = parse(deck).unwrap_err();
        assert!(e.message.contains("duplicate .model definition `x`"));
    }

    #[test]
    fn parses_dc_sweep_and_print() {
        let deck = "* t\nV1 a 0 1\nR1 a 0 1k\n.dc V1 0 5 0.5\n.print tran v(a) i(v1)\n.end\n";
        let nl = parse(deck).unwrap();
        match &nl.analyses[0] {
            Analysis::DcSweep {
                source,
                start,
                stop,
                step,
            } => {
                assert_eq!(source, "V1");
                assert_eq!((*start, *stop, *step), (0.0, 5.0, 0.5));
            }
            other => panic!("wrong analysis {other:?}"),
        }
        match &nl.analyses[1] {
            Analysis::Print { analysis, vars } => {
                assert_eq!(analysis, "tran");
                assert_eq!(vars, &["v(a)".to_owned(), "i(v1)".to_owned()]);
            }
            other => panic!("wrong analysis {other:?}"),
        }
        // Bad sweep steps are rejected with a column.
        let e = parse("* t\nV1 a 0 1\n.dc V1 0 5 -1\n.end\n").unwrap_err();
        assert!(e.message.contains("cannot reach"));
        assert!(e.col > 0);
    }

    #[test]
    fn controlled_source_diagnostics_carry_position() {
        // F referencing a non-V element: column of the bad token.
        let e = parse("* t\nF1 a 0 R9 2\n.end\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 8);
        assert!(e.message.contains("must be a voltage source"));
        // Truncated E card: card-level error.
        let e = parse("* t\nE1 a 0 cp\n.end\n").unwrap_err();
        assert_eq!(e.col, 0);
        assert!(e.message.contains("controlled source"));
        // Bad inductance value: column of the value token.
        let e = parse("* t\nL1 a b x10\n.end\n").unwrap_err();
        assert_eq!(e.col, 8);
    }

    #[test]
    fn new_elements_flatten_through_subckts() {
        let deck = "\
* nest
.subckt tank a b
L1 a mid 5n
R1 mid b 10
Vsense mid 0 0
F1 a 0 Vsense 2
.ends
.subckt pair x y
Xt1 x y tank
Xt2 y x tank
.ends
X1 top bot pair
.end
";
        let nl = parse(deck).unwrap().flatten().unwrap();
        // Two tanks, four elements each.
        assert_eq!(nl.elements.len(), 8);
        // The F control reference follows the flattened V-source name.
        let f = nl
            .elements
            .iter()
            .find(|e| e.name.to_ascii_lowercase().starts_with("f1.x1.xt1"))
            .expect("flattened F1 in first tank");
        match &f.kind {
            ElementKind::Cccs { ctrl, .. } => {
                assert!(
                    ctrl.to_ascii_lowercase().starts_with("vsense.x1.xt1"),
                    "control must follow the local V source: {ctrl}"
                );
            }
            other => panic!("wrong kind {other:?}"),
        }
        // Internal nodes are path-scoped per instance.
        let l = nl
            .elements
            .iter()
            .find(|e| e.name.to_ascii_lowercase().starts_with("l1.x1.xt2"))
            .unwrap();
        assert!(l.nodes().iter().any(|n| n.contains("x1.xt2.mid")));
    }

    #[test]
    fn writer_parser_roundtrip() {
        let deck = "\
* roundtrip
.model nch nmos (vto=0.7 kp=110u lambda=0.04 cox=3.45m cjb=0.4n)
R1 in out 250
C1 out 0 1.35p
M1 out in 0 0 nch w=4u l=1u
V1 in 0 pulse(0 5 0 1n 1n 3n 10n)
.tran 10p 5n
.end
";
        let nl = parse(deck).unwrap();
        let text = nl.to_string();
        let nl2 = parse(&text).unwrap();
        assert_eq!(nl.elements.len(), nl2.elements.len());
        assert_eq!(nl.models.len(), nl2.models.len());
        assert_eq!(nl.analyses, nl2.analyses);
        // Values survive the round trip.
        for (a, b) in nl.elements.iter().zip(&nl2.elements) {
            match (&a.kind, &b.kind) {
                (ElementKind::Resistor { ohms: x, .. }, ElementKind::Resistor { ohms: y, .. }) => {
                    assert!((x - y).abs() < 1e-9 * x.abs())
                }
                (
                    ElementKind::Capacitor { farads: x, .. },
                    ElementKind::Capacitor { farads: y, .. },
                ) => assert!((x - y).abs() < 1e-9 * x.abs()),
                _ => {}
            }
        }
    }
}
