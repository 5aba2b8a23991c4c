//! SPICE deck parser: the "input parser" box of RCFIT's flowchart.
//!
//! Supports the element cards rich parasitic decks need (R, C, L, M, V,
//! I, the E/G/F/H controlled sources, and D diodes), `.MODEL` for
//! level-1 MOSFETs and junction diodes, `.TRAN`/`.AC`/`.DC`/`.PRINT`
//! analyses, comments (`*`), line continuations (`+`) and
//! case-insensitive keywords with engineering-unit values.
//!
//! Cards are tokenized in place: tokens borrow the deck text (up to
//! [`INLINE_TOKENS`] of them on the stack), and only a card joined from
//! `+` continuation lines owns a copy of it. Node names are interned per
//! deck: each distinct name is allocated once and every card that names
//! it shares it, so an R or C card costs one allocation, its name.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

use crate::ast::{
    Analysis, DiodeModel, Element, ElementKind, MosModel, MosfetCard, Netlist, Node, Subckt,
    SubcktInstance, Waveform,
};
use crate::units::{parse_value, starts_with_ignore_case};

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
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(idx, raw)| (idx + 1, raw.trim_end()))
        .peekable();
    let mut nl = Netlist::default();
    let mut nodes = Interner::default();
    // Subcircuit scope: while inside `.subckt … .ends`, cards land in a
    // scratch netlist that becomes the definition body. The line number of
    // the opening `.subckt` card rides along for error attribution.
    let mut subckt_stack: Vec<(usize, Subckt, Netlist)> = Vec::new();
    let mut first = true;
    while let Some((lineno, line)) = lines.next() {
        // Join continuation lines onto the card they continue; the card
        // keeps the line number it started on.
        let mut card = Cow::Borrowed(line);
        while let Some(rest) = lines
            .peek()
            .and_then(|&(_, next)| next.trim_start().strip_prefix('+'))
        {
            let joined = card.to_mut();
            joined.push(' ');
            joined.push_str(rest);
            lines.next();
        }
        let trimmed = card.trim();
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
        if starts_with_ignore_case(body.as_bytes(), b".subckt") {
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
        if starts_with_ignore_case(body.as_bytes(), b".ends") {
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
        parse_card(body, lineno, target, &mut nodes)?;
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
    let first = line.chars().next().unwrap_or(' ').to_ascii_lowercase();
    matches!(
        first,
        'r' | 'c' | 'l' | 'm' | 'v' | 'i' | 'x' | 'e' | 'g' | 'f' | 'h' | 'd' | '.'
    ) && line.split_whitespace().nth(1).is_some()
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

/// One token of a card, borrowed from it.
#[derive(Clone, Copy, Debug)]
struct Token<'a> {
    text: &'a str,
    /// 1-based byte column of the token's first byte in the card.
    col: usize,
}

impl Token<'_> {
    fn is(&self, word: &str) -> bool {
        self.text.eq_ignore_ascii_case(word)
    }

    /// The token's first character, ASCII-lower-cased.
    fn letter(&self) -> char {
        self.text
            .chars()
            .next()
            .map_or(' ', |c| c.to_ascii_lowercase())
    }

    fn value(&self, line: usize) -> Result<f64, ParseNetlistError> {
        parse_value(self.text).map_err(|e| err_at(line, self.col, e.to_string()))
    }

    fn owned(&self) -> String {
        self.text.to_owned()
    }

    fn node(&self, nodes: &mut Interner) -> Node {
        nodes.node(self.text)
    }
}

/// The deck's node names, each stored once.
#[derive(Default)]
struct Interner {
    names: HashSet<Node>,
}

impl Interner {
    /// The shared node for `name`, allocated on first sight.
    fn node(&mut self, name: &str) -> Node {
        if let Some(node) = self.names.get(name) {
            return node.clone();
        }
        let node = Node::from(name);
        self.names.insert(node.clone());
        node
    }
}

/// Tokens a card keeps on the stack; longer cards (waveforms, `.print`
/// lists, subcircuit instances) move to the heap.
const INLINE_TOKENS: usize = 8;

/// A card's tokens: inline up to [`INLINE_TOKENS`], else on the heap.
struct Tokens<'a> {
    inline: [Token<'a>; INLINE_TOKENS],
    len: usize,
    heap: Vec<Token<'a>>,
}

impl<'a> Tokens<'a> {
    fn push(&mut self, token: Token<'a>) {
        if self.len < INLINE_TOKENS {
            self.inline[self.len] = token;
            self.len += 1;
        } else {
            if self.heap.is_empty() {
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(token);
        }
    }
}

impl<'a> std::ops::Deref for Tokens<'a> {
    type Target = [Token<'a>];

    fn deref(&self) -> &[Token<'a>] {
        if self.heap.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

/// Splits a card exactly where `str::split_whitespace` would, and also
/// around every `(`, `)` and `=`, which are tokens of their own: so
/// `PULSE(0 1)`, `w=10u` and `area = 2` tokenize alike.
fn tokenize(body: &str) -> Tokens<'_> {
    let mut tokens = Tokens {
        inline: [Token { text: "", col: 0 }; INLINE_TOKENS],
        len: 0,
        heap: Vec::new(),
    };
    let mut start = None;
    for (i, c) in body.char_indices() {
        let punct = matches!(c, '(' | ')' | '=');
        if punct || c.is_whitespace() {
            if let Some(s) = start.take() {
                tokens.push(Token {
                    text: &body[s..i],
                    col: s + 1,
                });
            }
            if punct {
                tokens.push(Token {
                    text: &body[i..i + 1],
                    col: i + 1,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        tokens.push(Token {
            text: &body[s..],
            col: s + 1,
        });
    }
    tokens
}

fn parse_card(
    body: &str,
    line: usize,
    nl: &mut Netlist,
    nodes: &mut Interner,
) -> Result<(), ParseNetlistError> {
    let tokens = tokenize(body);
    let Some(head) = tokens.first() else {
        return Ok(());
    };
    let letter = head.letter();
    let kind = match letter {
        '.' => return parse_dot_card(&tokens, line, nl),
        'r' | 'c' | 'l' => {
            let (a, b, v) = two_node_value(&tokens, line, nodes)?;
            match letter {
                'r' => ElementKind::Resistor { a, b, ohms: v },
                'c' => ElementKind::Capacitor { a, b, farads: v },
                _ => ElementKind::Inductor { a, b, henries: v },
            }
        }
        'e' | 'g' => {
            // Ename p n cp cn gain / Gname p n cp cn gm.
            if tokens.len() < 6 {
                let what = if letter == 'e' { "E" } else { "G" };
                return Err(err(
                    line,
                    format!("expected `{what}name p n cp cn value` (controlled source)"),
                ));
            }
            let v = tokens[5].value(line)?;
            let (p, n) = (tokens[1].node(nodes), tokens[2].node(nodes));
            let control = Box::new([tokens[3].node(nodes), tokens[4].node(nodes)]);
            if letter == 'e' {
                ElementKind::Vcvs {
                    p,
                    n,
                    control,
                    gain: v,
                }
            } else {
                ElementKind::Vccs {
                    p,
                    n,
                    control,
                    gm: v,
                }
            }
        }
        'f' | 'h' => {
            // Fname p n Vctrl gain / Hname p n Vctrl ohms.
            if tokens.len() < 5 {
                let what = if letter == 'f' { "F" } else { "H" };
                return Err(err(
                    line,
                    format!("expected `{what}name p n vsource value` (controlled source)"),
                ));
            }
            let ctrl = tokens[3];
            if ctrl.letter() != 'v' {
                return Err(err_at(
                    line,
                    ctrl.col,
                    format!(
                        "controlling element `{}` must be a voltage source (V…)",
                        ctrl.text
                    ),
                ));
            }
            let v = tokens[4].value(line)?;
            let (p, n, ctrl) = (
                tokens[1].node(nodes),
                tokens[2].node(nodes),
                ctrl.text.into(),
            );
            if letter == 'f' {
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
            }
        }
        'd' => {
            // Dname anode cathode model [area=x | x].
            if tokens.len() < 4 {
                return Err(err(line, "expected `Dname anode cathode model [area=x]`"));
            }
            let mut area = 1.0;
            if tokens.len() > 4 {
                area = if tokens.len() >= 7 && tokens[4].is("area") && tokens[5].text == "=" {
                    tokens[6].value(line)?
                } else {
                    tokens[4].value(line)?
                };
                if area <= 0.0 || !area.is_finite() {
                    return Err(err_at(
                        line,
                        tokens[tokens.len() - 1].col,
                        format!("diode area must be positive and finite, got {area}"),
                    ));
                }
            }
            ElementKind::Diode {
                p: tokens[1].node(nodes),
                n: tokens[2].node(nodes),
                model: tokens[3].text.to_ascii_lowercase().into(),
                area,
            }
        }
        'm' => parse_mosfet(&tokens, line, nodes)?,
        'x' => {
            if tokens.len() < 3 {
                return Err(err(line, "expected `Xname node... subckt`"));
            }
            nl.instances.push(SubcktInstance {
                name: head.owned(),
                nodes: tokens[1..tokens.len() - 1]
                    .iter()
                    .map(|t| t.node(nodes))
                    .collect(),
                subckt: tokens[tokens.len() - 1].text.to_ascii_lowercase(),
            });
            return Ok(());
        }
        'v' | 'i' => {
            if tokens.len() < 3 {
                let what = if letter == 'v' { "V" } else { "I" };
                return Err(err(
                    line,
                    format!("expected `{what}name n+ n- [value | waveform]`"),
                ));
            }
            let wave = Box::new(parse_waveform(&tokens[3..], line)?);
            let (p, n) = (tokens[1].node(nodes), tokens[2].node(nodes));
            if letter == 'v' {
                ElementKind::VSource { p, n, wave }
            } else {
                ElementKind::ISource { p, n, wave }
            }
        }
        other => return Err(err(line, format!("unsupported element type `{other}`"))),
    };
    nl.elements.push(Element {
        name: head.owned(),
        kind,
    });
    Ok(())
}

fn two_node_value(
    tokens: &[Token<'_>],
    line: usize,
    nodes: &mut Interner,
) -> Result<(Node, Node, f64), ParseNetlistError> {
    if tokens.len() < 4 {
        return Err(err(line, "expected `NAME node1 node2 value`"));
    }
    let v = tokens[3].value(line)?;
    Ok((tokens[1].node(nodes), tokens[2].node(nodes), v))
}

fn parse_mosfet(
    tokens: &[Token<'_>],
    line: usize,
    nodes: &mut Interner,
) -> Result<ElementKind, ParseNetlistError> {
    if tokens.len() < 6 {
        return Err(err(line, "expected `Mname d g s b model [w= l=]`"));
    }
    let mut w = 10e-6;
    let mut l = 1e-6;
    let mut i = 6;
    while i < tokens.len() {
        let key = tokens[i];
        if (key.is("w") || key.is("l")) && i + 2 < tokens.len() && tokens[i + 1].text == "=" {
            let v = tokens[i + 2].value(line)?;
            if key.is("w") {
                w = v;
            } else {
                l = v;
            }
            i += 3;
        } else {
            i += 1;
        }
    }
    Ok(ElementKind::Mosfet(Box::new(MosfetCard {
        d: tokens[1].node(nodes),
        g: tokens[2].node(nodes),
        s: tokens[3].node(nodes),
        b: tokens[4].node(nodes),
        model: tokens[5].text.to_ascii_lowercase(),
        w,
        l,
    })))
}

fn parse_waveform(tokens: &[Token<'_>], line: usize) -> Result<Waveform, ParseNetlistError> {
    let Some(head) = tokens.first() else {
        return Ok(Waveform::Dc(0.0));
    };
    if head.is("dc") {
        let v = tokens
            .get(1)
            .ok_or_else(|| err(line, "dc needs a value"))?
            .value(line)?;
        Ok(Waveform::Dc(v))
    } else if head.is("pulse") {
        let vals = numeric_args(&tokens[1..], line)?;
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
    } else if head.is("pwl") {
        let vals = numeric_args(&tokens[1..], line)?;
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
    } else if head.is("sin") {
        let vals = numeric_args(&tokens[1..], line)?;
        if vals.len() < 3 {
            return Err(err(line, "sin needs vo va freq"));
        }
        Ok(Waveform::Sin {
            vo: vals[0],
            va: vals[1],
            freq: vals[2],
        })
    } else {
        // Bare value: `V1 a 0 5`.
        Ok(Waveform::Dc(head.value(line)?))
    }
}

fn numeric_args(tokens: &[Token<'_>], line: usize) -> Result<Vec<f64>, ParseNetlistError> {
    tokens
        .iter()
        .filter(|t| t.text != "(" && t.text != ")")
        .map(|t| t.value(line))
        .collect()
}

fn parse_dot_card(
    tokens: &[Token<'_>],
    line: usize,
    nl: &mut Netlist,
) -> Result<(), ParseNetlistError> {
    let head = tokens[0];
    if head.is(".model") {
        if tokens.len() < 3 {
            return Err(err(line, ".model needs name and type"));
        }
        let name = tokens[1].text.to_ascii_lowercase();
        let kind = tokens[2];
        // Duplicate-model detection spans both namespaces: a MOSFET
        // and a diode model may not share a name either — references
        // resolve by name alone, so a collision is always ambiguous.
        if nl.models.contains_key(&name) || nl.diode_models.contains_key(&name) {
            return Err(err_at(
                line,
                tokens[1].col,
                format!("duplicate .model definition `{name}`"),
            ));
        }
        if kind.is("d") || kind.is("diode") {
            let mut model = DiodeModel::default_diode(name);
            let params = collect_params(&tokens[3..], line)?;
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
                    tokens[1].col,
                    format!(
                        "diode model `{}` needs positive is and n (got is={}, n={})",
                        model.name, model.is, model.n
                    ),
                ));
            }
            nl.diode_models.insert(model.name.clone(), model);
            return Ok(());
        }
        let mut model = if kind.is("nmos") {
            MosModel::default_nmos(name)
        } else if kind.is("pmos") {
            MosModel::default_pmos(name)
        } else {
            return Err(err_at(
                line,
                kind.col,
                format!(
                    "unsupported model type `{}`",
                    kind.text.to_ascii_lowercase()
                ),
            ));
        };
        // key = value pairs (`=` is a token of its own).
        let params = collect_params(&tokens[3..], line)?;
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
    } else if head.is(".tran") {
        // .tran tstep tstop [tstart [tmax]] [UIC]
        let mut args = &tokens[1..];
        let uic = args.last().is_some_and(|t| t.is("uic"));
        if uic {
            args = &args[..args.len() - 1];
        }
        let vals = numeric_args(args, line)?;
        if vals.len() < 2 {
            return Err(err(line, ".tran needs tstep tstop"));
        }
        if vals.len() > 4 {
            return Err(err(line, ".tran takes tstep tstop [tstart [tmax]] [uic]"));
        }
        nl.analyses.push(Analysis::Tran {
            tstep: vals[0],
            tstop: vals[1],
            tstart: vals.get(2).copied(),
            tmax: vals.get(3).copied(),
            uic,
        });
    } else if head.is(".ac") {
        if tokens.len() < 5 || !tokens[1].is("dec") {
            return Err(err(line, ".ac supports `dec n fstart fstop`"));
        }
        let n: usize = tokens[2]
            .text
            .parse()
            .map_err(|_| err_at(line, tokens[2].col, "invalid point count"))?;
        let fstart = tokens[3].value(line)?;
        let fstop = tokens[4].value(line)?;
        nl.analyses.push(Analysis::AcDec {
            points_per_decade: n,
            fstart,
            fstop,
        });
    } else if head.is(".dc") {
        // .dc SRC start stop step
        if tokens.len() < 5 {
            return Err(err(line, ".dc needs `source start stop step`"));
        }
        let source = tokens[1];
        if !matches!(source.letter(), 'v' | 'i') {
            return Err(err_at(
                line,
                source.col,
                format!("swept element `{}` must be a V or I source", source.text),
            ));
        }
        let start = tokens[2].value(line)?;
        let stop = tokens[3].value(line)?;
        let step = tokens[4].value(line)?;
        if step == 0.0 || !step.is_finite() || (stop - start) * step < 0.0 {
            return Err(err_at(
                line,
                tokens[4].col,
                format!("sweep step {step} cannot reach {stop} from {start}"),
            ));
        }
        nl.analyses.push(Analysis::DcSweep {
            source: source.owned(),
            start,
            stop,
            step,
        });
    } else if head.is(".print") {
        // .print [tran|ac|dc] v(node) … — the analysis keyword is
        // optional (defaults to tran, matching classic decks).
        let (analysis, rest) = match tokens.get(1) {
            Some(a) if a.is("tran") || a.is("ac") || a.is("dc") => {
                (a.text.to_ascii_lowercase(), &tokens[2..])
            }
            _ => ("tran".to_owned(), &tokens[1..]),
        };
        // Re-assemble `v ( out )` token runs into `v(out)` variables.
        let mut vars: Vec<String> = Vec::new();
        let mut depth = 0usize;
        for t in rest {
            match t.text {
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
    }
    // `.end`, `.options`, `.probe`, ... are accepted and ignored.
    Ok(())
}

fn collect_params(
    tokens: &[Token<'_>],
    line: usize,
) -> Result<BTreeMap<String, f64>, ParseNetlistError> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = tokens[i];
        if t.text == "(" || t.text == ")" {
            i += 1;
            continue;
        }
        if i + 2 < tokens.len() && tokens[i + 1].text == "=" {
            let v = tokens[i + 2].value(line)?;
            out.insert(t.text.to_ascii_lowercase(), v);
            i += 3;
        } else if i + 2 == tokens.len() && tokens[i + 1].text == "=" {
            return Err(err_at(
                line,
                t.col,
                format!("parameter `{}` missing value", t.text),
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
    fn tran_keeps_its_optional_values_and_uic() {
        let deck = |tran: &str| format!("* t\nV1 a 0 1\nR1 a b 1k\nC1 b 0 1p\n{tran}\n");
        let cases = [
            (".tran 1n 10n", (None, None, false), ""),
            (".tran 1n 10n UIC", (None, None, true), " uic"),
            (".tran 1n 10n 2n", (Some(2e-9), None, false), " 2.000000n"),
            (
                ".TRAN 1n 10n 0 100p uic",
                (Some(0.0), Some(1e-10), true),
                " 0 100.000000p uic",
            ),
        ];
        for (card, want, written) in cases {
            let nl = parse(&deck(card)).unwrap();
            match nl.analyses[..] {
                [Analysis::Tran {
                    tstep,
                    tstop,
                    tstart,
                    tmax,
                    uic,
                }] => {
                    assert_eq!((tstep, tstop), (1e-9, 1e-8), "{card}");
                    assert_eq!((tstart, tmax, uic), want, "{card}");
                }
                ref other => panic!("{card}: {other:?}"),
            }
            let text = nl.to_string();
            let line = format!(".tran 1.000000n 10.000000n{written}\n.end\n");
            assert!(text.ends_with(&line), "{card}: {text}");
            assert_eq!(parse(&text).unwrap().analyses, nl.analyses, "{card}");
        }
        let e = parse(&deck(".tran 1n 10n 0 1p 2p")).unwrap_err();
        assert!(e.to_string().contains(".tran takes"), "{e}");
        let e = parse(&deck(".tran 1n UIC")).unwrap_err();
        assert!(e.to_string().contains(".tran needs tstep tstop"), "{e}");
    }

    #[test]
    fn continuation_lines_join() {
        let deck = "* t\nV1 in 0 pulse(0 5\n+ 0 1n 1n 3n 10n)\n.end\n";
        let nl = parse(deck).unwrap();
        match &nl.elements[0].kind {
            ElementKind::VSource { wave, .. } => match **wave {
                Waveform::Pulse { v2, per, .. } => {
                    assert_eq!(v2, 5.0);
                    assert_eq!(per, 10e-9);
                }
                ref other => panic!("wrong wave {other:?}"),
            },
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
            ElementKind::Mosfet(m) => {
                assert_eq!(m.w, 4e-6);
                assert_eq!(m.l, 1e-6);
                assert_eq!(m.model, "nch");
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
            ElementKind::ISource { wave, .. } => match &**wave {
                Waveform::Pwl(p) => assert_eq!(p.len(), 2),
                _ => panic!(),
            },
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
    fn value_columns_point_at_the_token_not_an_earlier_match() {
        // `b` first occurs inside the node name `nb`; the value is at
        // column 10.
        let e = parse("* t\nR1 in nb b\n.end\n").unwrap_err();
        assert_eq!(e.to_string(), "line 2, col 10: invalid SPICE number `b`");
        // The same holds for the last token of a diode card.
        let e = parse("* t\nD1 a 0 dm 0\n.end\n").unwrap_err();
        assert_eq!(e.col, 11);
    }

    #[test]
    fn tokens_split_like_split_whitespace_around_punctuation() {
        for card in [
            "R1\tin \u{a0}out\r 1k",
            "V1 a 0 PULSE(0 1)",
            "V2 a 0 PULSE(0 1 2n 1n 1n 5n 20n)",
            "M1 d g s b n w=1u l = 2u",
            "x(=)y((",
            "nœud\u{2003}é=µ",
            "a\u{85}b\u{3000}c\u{1680}(d\x0b)e\x0c",
        ] {
            let spaced = card
                .replace('(', " ( ")
                .replace(')', " ) ")
                .replace('=', " = ");
            let expected: Vec<&str> = spaced.split_whitespace().collect();
            let tokens = tokenize(card);
            let texts: Vec<&str> = tokens.iter().map(|t| t.text).collect();
            assert_eq!(texts, expected, "{card:?}");
            for t in tokens.iter() {
                assert_eq!(&card[t.col - 1..t.col - 1 + t.text.len()], t.text);
            }
        }
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
            ElementKind::Vcvs { gain, control, .. } => {
                assert_eq!(*gain, 2.5);
                assert_eq!(control[0], "cp");
            }
            other => panic!("wrong kind {other:?}"),
        }
        match &nl.elements[2].kind {
            ElementKind::Vccs { gm, .. } => assert!((gm - 1e-3).abs() < 1e-15),
            other => panic!("wrong kind {other:?}"),
        }
        match &nl.elements[4].kind {
            ElementKind::Cccs { ctrl, gain, .. } => {
                assert_eq!(&**ctrl, "Vref");
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
                assert_eq!(&**model, "dclamp");
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
